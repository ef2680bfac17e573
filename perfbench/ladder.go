package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/ndjson"
	"repro/internal/planner"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/workload"
)

// ladderReps is how many times the ladder repeats each cheap per-point
// loop; the reported cost is the median repetition.
const ladderReps = 5

// ladder times calls into each module's public functions, from the
// benchmark's own code, on inputs of the workload's batch shape. Every
// call is a span under one root span. It returns the per-layer metrics
// it measures; a failed cross-check is booked through fail.
func ladder(g *gen, sh shape, tr *tracer, tmp string, fail func(error)) (map[string]float64, error) {
	out := map[string]float64{}
	root := tr.open(0, "ladder")
	defer tr.finish(root)
	ctx := context.Background()
	sock := platform.NewPurley().Socket(0)

	in := g.batchSweep(sh.sweepScales)
	data := in.encode()
	n := in.size()
	perPoint := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }
	// medianOf runs fn ladderReps times and returns the median duration.
	medianOf := func(name string, count int, fn func()) time.Duration {
		ds := make([]float64, ladderReps)
		for i := range ds {
			ds[i] = float64(tr.call(root, name, count, fn))
		}
		return time.Duration(median(ds))
	}

	// scenario: decode and expand.
	var sp scenario.Spec
	var err error
	const decodes = 200
	d := medianOf("scenario.ParseSpec", decodes, func() {
		for i := 0; i < decodes && err == nil; i++ {
			sp, err = scenario.ParseSpec(data, in.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	out["scenario.decode_us"] = float64(d.Nanoseconds()) / 1e3 / decodes
	var jobs []engine.Job
	d = medianOf("scenario.Spec.Expand", n, func() { _, jobs, err = sp.Expand() })
	if err != nil {
		return nil, err
	}
	out["scenario.expand_ns"] = perPoint(d)

	// engine: key derivation, cold and hit batches.
	keys := make([]engine.Key, n)
	d = medianOf("engine.Job.Key", n, func() {
		for i, j := range jobs {
			keys[i] = j.Key()
		}
	})
	out["engine.key_ns"] = perPoint(d)
	eng := engine.New(sock, 1)
	var results []workload.Result
	d = tr.call(root, "engine.RunBatchCtx(cold)", n, func() { results, err = eng.RunBatchCtx(ctx, jobs) })
	if err != nil {
		return nil, err
	}
	out["engine.cold_ns"] = perPoint(d)
	d = medianOf("engine.RunBatchCtx(hit)", n, func() { _, err = eng.RunBatchCtx(ctx, jobs) })
	if err != nil {
		return nil, err
	}
	hitNS := perPoint(d)
	out["engine.hit_ns"] = hitNS

	// memsys: the model solve alone.
	d = medianOf("workload.Run", n, func() {
		for _, j := range jobs {
			if _, err2 := workload.Run(j.Workload, eng.System(j.Mode), j.Threads); err2 != nil {
				err = err2
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out["memsys.solve_ns"] = perPoint(d)

	// resultstore: memory acquire, and the disk store's write, open,
	// compaction and fault-in paths.
	d = medianOf("resultstore.Memory.Acquire", n, func() {
		m := resultstore.NewMemory()
		for _, k := range keys {
			m.Acquire(k)
		}
	})
	out["resultstore.memory_acquire_ns"] = perPoint(d)
	// The live heap a memory-store engine holds per cached point: the
	// reference for store_bytes_per_point on the memory-store workloads.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := engine.New(sock, 1)
	if _, err := held.RunBatchCtx(ctx, jobs); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	out["resultstore.memory_bytes_per_point"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	if err := diskLadder(tr, root, filepath.Join(tmp, "ladder-store"), keys, results, out); err != nil {
		return nil, err
	}

	// session: Submit + Stream on a cold engine, and the first outcome
	// of interactive specs.
	var outs []scenario.Outcome
	d = tr.call(root, "session.Submit+Stream", n, func() {
		mgr := session.NewManager(engine.New(sock, 1))
		defer mgr.Close()
		var s *session.Session
		if s, err = mgr.Submit(sp); err != nil {
			return
		}
		outs = make([]scenario.Outcome, 0, n)
		err = s.Stream(ctx, func(o scenario.Outcome) error { outs = append(outs, o); return nil })
	})
	if err != nil {
		return nil, err
	}
	streamNS := perPoint(d)
	out["session.stream_ns"] = streamNS
	ig := newGen(g.rng.Uint64(), 0, "ladder")
	var firsts []float64
	var prev []specIn
	mgr := session.NewManager(engine.New(sock, 1))
	for len(firsts) < 50 {
		isp, rep := ig.interactive(prev)
		prev = append(prev, isp)
		if rep >= 0 {
			continue
		}
		ssp, err := scenario.ParseSpec(isp.encode(), isp.Name)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var first time.Time
		s, err := mgr.Submit(ssp)
		if err != nil {
			return nil, err
		}
		err = s.Stream(ctx, func(scenario.Outcome) error {
			if first.IsZero() {
				first = time.Now()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		tr.add(root, "session.first_outcome", s.ID(), start, first, 1)
		firsts = append(firsts, float64(first.Sub(start).Nanoseconds())/1e3)
	}
	mgr.Close()
	out["session.first_outcome_us"] = median(firsts)

	// ndjson: the streaming encoder.
	var enc ndjson.Encoder
	total := 0
	d = medianOf("ndjson.Encoder.Outcome", n, func() {
		total = 0
		for _, o := range outs {
			total += len(enc.Outcome(o))
		}
	})
	out["ndjson.encode_ns"] = perPoint(d)
	out["ndjson.bytes_per_point"] = float64(total) / float64(n)

	// fleet: the result-wire encoding, and a whole in-process fleet.
	if err := fleetLadder(ctx, tr, root, sock, sp, results, out, fail); err != nil {
		return nil, err
	}

	// planner: a plan on a warm engine, against the exhaustive values.
	psp := g.batchPlan(sh.planScales)
	pspec, err := scenario.ParseSpec(psp.encode(), psp.Name)
	if err != nil {
		return nil, err
	}
	peng := engine.New(sock, 1)
	exSpec := pspec
	exSpec.Plan = nil
	var exOuts []scenario.Outcome
	tr.call(root, "scenario.Spec.Run(exhaustive)", pspec.Size(), func() { exOuts, err = exSpec.Run(peng) })
	if err != nil {
		return nil, err
	}
	var res *planner.Result
	d = tr.call(root, "planner.RunSpec(warm)", pspec.Size(), func() { res, err = planner.RunSpec(ctx, peng, pspec, nil) })
	if err != nil {
		return nil, err
	}
	np := len(res.Points)
	out["planner.fit_ns"] = (float64(d.Nanoseconds()) - float64(res.Evaluations)*hitNS) / float64(np)
	out["planner.evaluated_share"] = float64(res.Evaluations) / float64(np)
	var errs []float64
	for i, p := range res.Points {
		if !p.Evaluated {
			ex := exOuts[i].Result.Time.Seconds()
			errs = append(errs, math.Abs(p.Time.Seconds()-ex)/ex)
		}
	}
	out["planner.pred_err_p90"] = quantile(errs, 0.9)
	return out, nil
}

// diskLadder measures the disk result store on keys and results.
func diskLadder(tr *tracer, root int, dir string, keys []engine.Key, results []workload.Result, out map[string]float64) error {
	n := len(keys)
	perPoint := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }
	disk, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	d := tr.call(root, "resultstore.Disk.Acquire+Commit+Sync", n, func() {
		for i, k := range keys {
			e, loaded := disk.Acquire(k)
			if !loaded {
				disk.Commit(k, results[i], nil)
				e.MarkDone()
			}
		}
		err = disk.Sync()
	})
	if err != nil {
		return err
	}
	out["resultstore.disk_commit_ns"] = perPoint(d)
	if err := disk.Close(); err != nil {
		return err
	}
	live, err := dirBytes(dir)
	if err != nil {
		return err
	}
	out["resultstore.live_bytes_per_point"] = float64(live) / float64(n)
	d = tr.call(root, "resultstore.Open(live)", n, func() { disk, err = resultstore.Open(dir) })
	if err != nil {
		return err
	}
	out["resultstore.open_ms"] = ms(d)
	d = tr.call(root, "resultstore.Disk.Compact", n, func() { err = disk.Compact() })
	if err != nil {
		return err
	}
	out["resultstore.compact_ms"] = ms(d)
	if err := disk.Close(); err != nil {
		return err
	}
	compacted, err := dirBytes(dir)
	if err != nil {
		return err
	}
	out["resultstore.compacted_bytes_per_point"] = float64(compacted) / float64(n)
	d = tr.call(root, "resultstore.Open(compacted)", n, func() { disk, err = resultstore.Open(dir) })
	if err != nil {
		return err
	}
	out["resultstore.open_compacted_ms"] = ms(d)
	misses := 0
	d = tr.call(root, "resultstore.Disk.Acquire(fault-in)", n, func() {
		for _, k := range keys {
			if _, loaded := disk.Acquire(k); !loaded {
				misses++
			}
		}
	})
	if misses != 0 {
		return fmt.Errorf("compacted store lost %d of %d points", misses, n)
	}
	out["resultstore.fault_in_ns"] = perPoint(d)
	if err := disk.Close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// wireTol is how far, as a share, the wire bytes per point of the
// ladder's encoded batches may lie from the in-process fleet's own
// count in /fleet/v1/stats before the cross-check fails. The batches
// hold the same points in as many posts, but the fleet's adaptive chunk
// sizes differ from post to post, and gzip's ratio a little with them.
const wireTol = 0.05

// fleetLadder measures a whole fleet run in process (a coordinator and
// one worker on loopback HTTP) and the result-wire encoding of the same
// points, and cross-checks the encoded size against what the
// coordinator counted on the wire. A failed cross-check is booked
// through fail.
func fleetLadder(ctx context.Context, tr *tracer, root int, sock *platform.Socket, sp scenario.Spec, results []workload.Result, out map[string]float64, fail func(error)) error {
	n := len(results)
	ceng := engine.New(sock, 1)
	coord := fleet.New(ceng, fleet.Options{})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Routes(mux)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-served
	}()
	base := "http://" + l.Addr().String()
	wctx, stop := context.WithCancel(ctx)
	worker := &fleet.Worker{Base: base, Client: &http.Client{Transport: &http.Transport{}}, Eng: engine.New(sock, 1), Name: "ladder"}
	ran := make(chan error, 1)
	go func() { ran <- worker.Run(wctx) }()
	defer func() {
		stop()
		<-ran
	}()
	for coord.Workers() < 1 {
		time.Sleep(time.Millisecond)
	}
	mgr := session.NewManager(ceng)
	mgr.SetExecutor(coord)
	defer mgr.Close()
	d := tr.call(root, "fleet(inproc) Submit+Stream", n, func() {
		var s *session.Session
		if s, err = mgr.Submit(sp); err != nil {
			return
		}
		err = s.Stream(ctx, func(scenario.Outcome) error { return nil })
	})
	if err != nil {
		return err
	}
	out["fleet.inproc_ns"] = float64(d.Nanoseconds()) / float64(n)
	var st fleetStats
	c := newClient(base, "batch", nil)
	err = c.getJSON("/fleet/v1/stats", &st)
	c.close()
	if err != nil {
		return err
	}
	if st.PointsRemote != uint64(n) || st.ResultPosts == 0 {
		return fmt.Errorf("in-process fleet: %d remote points in %d result posts, want %d points", st.PointsRemote, st.ResultPosts, n)
	}
	out["fleet.result_posts"] = float64(st.ResultPosts)
	out["fleet.chunks_requeued"] = float64(st.ChunksRequeued)

	// Result batches as the worker posted them: the same points in as
	// many posts, each split into chunks of at most 256 points. A point
	// travels under its expansion index and without its Workload
	// descriptor, which the coordinator reattaches.
	wired := make([]workload.Result, n)
	for i, res := range results {
		res.Workload = nil
		wired[i] = res
	}
	per := (n + int(st.ResultPosts) - 1) / int(st.ResultPosts)
	var batches []fleet.ResultBatch
	for lo := 0; lo < n; lo += per {
		rb := fleet.ResultBatch{WorkerID: "ladder"}
		for c := lo; c < min(lo+per, n); c += 256 {
			cr := fleet.ChunkResult{WorkerID: "ladder", ChunkID: uint64(c), ElapsedUS: 1000}
			for i := c; i < min(c+256, lo+per, n); i++ {
				cr.Points = append(cr.Points, fleet.PointResult{Index: i, Result: &wired[i]})
			}
			rb.Results = append(rb.Results, cr)
		}
		batches = append(batches, rb)
	}
	var wire int
	d = tr.call(root, "fleet.EncodeResultBatch", n, func() {
		wire = 0
		for _, rb := range batches {
			b, _, err2 := fleet.EncodeResultBatch(rb)
			if err2 != nil {
				err = err2
			}
			wire += len(b)
		}
	})
	if err != nil {
		return err
	}
	out["fleet.encode_ns"] = float64(d.Nanoseconds()) / float64(n)
	encoded := float64(wire) / float64(n)
	out["fleet.wire_bytes_per_point"] = encoded
	seen := float64(st.ResultBytesWire) / float64(n)
	fmt.Fprintf(os.Stderr, "perfbench: fleet wire bytes per point: %.1f encoded, %.1f in /fleet/v1/stats (%d posts)\n", encoded, seen, st.ResultPosts)
	if math.Abs(encoded-seen) > wireTol*seen {
		fail(fmt.Errorf("fleet.wire_bytes_per_point %.1f lies more than %.0f%% from /fleet/v1/stats' %.1f", encoded, wireTol*100, seen))
	}
	return nil
}
