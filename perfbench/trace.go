package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval, recorded by the benchmark's own code
// around a call into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request (session) id the span belongs to
	Start  int64  `json:"start_ns"`      // since the run began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus what child spans cover
	Count  int    `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name, req string, start, end time.Time, count int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Count: count})
	return id
}

// open starts a span that finish ends; its id can parent other spans.
func (t *tracer) open(parent int, name string) int {
	return t.add(parent, name, "", time.Now(), time.Time{}, 0)
}

// finish ends a span opened by open.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// call times fn as a span and returns its duration.
func (t *tracer) call(parent int, name string, count int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(parent, name, "", start, end, count)
	return end.Sub(start)
}

// selfTimes fills each span's self time: its duration minus the union
// of the intervals its children cover.
func (t *tracer) selfTimes() {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write computes self times and writes the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary renders total and self time per span name.
func (t *tracer) summary() string {
	type agg struct {
		n          int
		total, own int64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.own += s.Self
	}
	sort.Strings(names)
	out := fmt.Sprintf("%-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		out += fmt.Sprintf("%-32s %8d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.own)/1e6)
	}
	return out
}
