package fleet

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// testScheduler builds a scheduler on the test cadence; the fake clock
// makes liveness decisions explicit.
func testScheduler(now *time.Time) *scheduler {
	return newScheduler(25*time.Millisecond, 100*time.Millisecond, 10*time.Millisecond,
		0, 0, func() time.Time { return *now })
}

// addBatch registers a cold identity batch of n points whose chunks
// carve at seed points each (until the tail guard shrinks them).
func addBatch(s *scheduler, id string, n, seed int) *batch {
	b := &batch{id: id, identity: true}
	s.addSource(&chunkSource{b: b, runs: []span{{lo: 0, hi: n}}, seed: seed, remaining: n})
	return b
}

// pullMax pulls up to max chunks with an already-cancelled context, so
// a pull with nothing to hand out returns at once instead of parking
// out the poll window.
func pullMax(t *testing.T, s *scheduler, id string, max int) []*chunk {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.pullN(ctx, id, max)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("pullN(%s, %d): %v", id, max, err)
	}
	return out
}

// pullNow pulls a single chunk without parking (nil when none).
func pullNow(t *testing.T, s *scheduler, id string) *chunk {
	t.Helper()
	if out := pullMax(t, s, id, 1); len(out) > 0 {
		return out[0]
	}
	return nil
}

func ids(cs []*chunk) []uint64 {
	out := make([]uint64, len(cs))
	for i, c := range cs {
		out[i] = c.id
	}
	return out
}

// A silent worker is reaped and its in-flight chunks are handed out
// whole, in id order, before any fresh carve.
func TestSchedulerReapRequeuesWhole(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	w2 := s.join("two").WorkerID
	addBatch(s, "b-1", 100, 2)

	// w1 holds chunks 1 and 2, w2 holds chunk 3; then w1 goes silent.
	held := pullMax(t, s, w1, 2)
	if got := ids(held); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("w1 pulled %v, want [1 2]", got)
	}
	if c := pullNow(t, s, w2); c == nil || c.id != 3 {
		t.Fatalf("w2 pulled %v, want chunk 3", c)
	}
	now = now.Add(150 * time.Millisecond)
	if !s.heartbeatFrom(w2) {
		t.Fatal("live worker heartbeat rejected")
	}
	s.reap()

	st := s.stats()
	if st.Workers != 1 || st.Dead != 1 {
		t.Fatalf("stats after reap = %+v, want 1 live 1 dead", st)
	}
	if st.Requeued != 2 || st.Pending != 2 {
		t.Errorf("requeued/pending = %d/%d, want 2/2", st.Requeued, st.Pending)
	}
	if st.InFlight != 1 {
		t.Errorf("in-flight = %d after evict, want w2's 1", st.InFlight)
	}

	// w2's free window is 3: the two requeued chunks come first, whole
	// and id-ordered, then one fresh carve.
	got := pullMax(t, s, w2, maxWorkChunks)
	if want := []uint64{1, 2, 4}; !reflect.DeepEqual(ids(got), want) {
		t.Fatalf("w2 pulled %v, want %v (requeued before fresh)", ids(got), want)
	}
	for i := range held {
		if got[i] != held[i] || !reflect.DeepEqual(got[i].indexes, held[i].indexes) {
			t.Errorf("requeued chunk %d came back altered: %v, was %v", got[i].id, got[i].indexes, held[i].indexes)
		}
	}
	if st := s.stats(); st.Pending != 0 || st.InFlight != 4 {
		t.Errorf("after the requeue drained: pending %d in-flight %d, want 0 and 4", st.Pending, st.InFlight)
	}
	// The dead worker's id is gone: heartbeat and pull both say rejoin.
	if s.heartbeatFrom(w1) {
		t.Error("reaped worker heartbeat accepted")
	}
	if _, err := s.pullN(context.Background(), w1, 1); !errors.Is(err, errUnknownWorker) {
		t.Errorf("reaped worker pull err = %v, want errUnknownWorker", err)
	}
}

// A zombie's late post still resolves its chunk if nobody recomputed
// it yet — results are keyed by chunk id, not by who holds the chunk —
// and is accepted exactly once.
func TestSchedulerZombiePostAccepted(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	w2 := s.join("two").WorkerID
	addBatch(s, "b-1", 8, 2)
	c := pullNow(t, s, w1)
	if c == nil {
		t.Fatal("no chunk")
	}
	now = now.Add(150 * time.Millisecond)
	s.heartbeatFrom(w2)
	s.reap() // w1 dead, its chunk on the requeue list

	// w1's post races the recompute and wins: accepted once.
	if got := s.complete(w1, c.id, 0); got != c {
		t.Fatalf("zombie post rejected: %v", got)
	}
	if st := s.stats(); st.Pending != 0 {
		t.Errorf("pending = %d after the zombie resolved its chunk, want 0", st.Pending)
	}
	// The resolved requeue entry is skipped: w2 gets a fresh carve.
	if got := pullNow(t, s, w2); got == nil || got.id == c.id {
		t.Errorf("w2 pulled %v, want a fresh chunk, not the resolved %d", got, c.id)
	}
	// A second post of the same chunk is stale.
	if got := s.complete(w2, c.id, 0); got != nil {
		t.Errorf("duplicate completion accepted: %v", got)
	}
}

// With every worker gone, reclaim hands a batch back for local
// evaluation: the requeued chunks in id order, then the uncarved
// remainder — every point exactly once — and chunk bookkeeping returns
// to zero. While any worker survives it reports nothing.
func TestSchedulerReclaim(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w1 := s.join("one").WorkerID
	b := addBatch(s, "b-1", 10, 2)
	if held := pullMax(t, s, w1, 2); len(held) != 2 {
		t.Fatalf("w1 pulled %d chunks, want 2", len(held))
	}
	if got := s.reclaim(b); got != nil {
		t.Fatalf("reclaim with a live worker returned %d chunks", len(got))
	}
	s.leave(w1)
	got := s.reclaim(b)
	if len(got) < 3 || got[0].id != 1 || got[1].id != 2 {
		t.Fatalf("reclaimed %v, want requeued chunks 1 and 2 then the remainder", ids(got))
	}
	var points []int
	for _, c := range got {
		points = append(points, c.indexes...)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(points, want) {
		t.Errorf("reclaimed points %v, want %v", points, want)
	}
	if st := s.stats(); st.Pending != 0 || st.ChunksLive != 0 {
		t.Errorf("pending/live = %d/%d after reclaim, want 0/0", st.Pending, st.ChunksLive)
	}
}

// A pull never hands out more than the worker's free window, whatever
// max_chunks asks for; completions free the window again.
func TestSchedulerPullBoundedByWindow(t *testing.T) {
	now := time.Unix(0, 0)
	s := newScheduler(25*time.Millisecond, 100*time.Millisecond, 10*time.Millisecond,
		3, 0, func() time.Time { return now })
	w := s.join("one").WorkerID
	addBatch(s, "b-1", 100, 1)

	if got := pullMax(t, s, w, 2); len(got) != 2 {
		t.Fatalf("pull of max 2 returned %d chunks", len(got))
	}
	if got := pullMax(t, s, w, maxWorkChunks); len(got) != 1 {
		t.Fatalf("pull with 1 free slot returned %d chunks", len(got))
	}
	if got := pullMax(t, s, w, maxWorkChunks); len(got) != 0 {
		t.Fatalf("pull with a full window returned %d chunks", len(got))
	}
	s.complete(w, 1, 1000)
	s.complete(w, 2, 1000)
	if got := pullMax(t, s, w, maxWorkChunks); len(got) != 2 {
		t.Fatalf("pull after two completions returned %d chunks, want 2", len(got))
	}
	if st := s.stats(); st.InFlight != 3 || st.ChunksLiveMax != 3 {
		t.Errorf("in-flight %d, live max %d; want both at the window, 3", st.InFlight, st.ChunksLiveMax)
	}
}

// Batches carve in registration order: the first source runs dry
// before the second is touched.
func TestSchedulerCarvesBatchesFIFO(t *testing.T) {
	now := time.Unix(0, 0)
	s := testScheduler(&now)
	w := s.join("one").WorkerID
	addBatch(s, "b-1", 3, 2)
	addBatch(s, "b-2", 4, 2)
	var order []string
	for c := pullNow(t, s, w); c != nil; c = pullNow(t, s, w) {
		order = append(order, c.b.id)
		s.complete(w, c.id, 1000)
	}
	seen := map[string]int{}
	for i, id := range order {
		seen[id]++
		if i > 0 && id < order[i-1] {
			t.Fatalf("carve order %v interleaves batches", order)
		}
	}
	if seen["b-1"] == 0 || seen["b-2"] == 0 {
		t.Errorf("carve order %v misses a batch", order)
	}
}
