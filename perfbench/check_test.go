package main

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ndjson"
	"repro/internal/planner"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/session"
)

// stream renders the spec's sweep as the daemon streams it.
func stream(t *testing.T, sp specIn) []byte {
	t.Helper()
	s, err := scenario.ParseSpec(sp.encode(), sp.Name)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := s.Run(engine.New(platform.NewPurley().Socket(0), 1))
	if err != nil {
		t.Fatal(err)
	}
	var enc ndjson.Encoder
	var b bytes.Buffer
	for _, o := range outs {
		b.Write(enc.Outcome(o))
	}
	return b.Bytes()
}

func testSpec() specIn {
	g := newGen(7, 0, "test")
	sp := g.batchSweep(2)
	sp.Threads = []int{8, 48}
	return sp
}

// splitLines splits a stream into its newline-terminated lines.
func splitLines(body []byte) []string {
	ls := strings.SplitAfter(string(body), "\n")
	return ls[:len(ls)-1]
}

// setField rewrites one numeric field of an NDJSON line.
func setField(t *testing.T, line, field string, f func(float64) float64) string {
	t.Helper()
	key := `"` + field + `":`
	i := strings.Index(line, key)
	if i < 0 {
		t.Fatalf("no %s in %s", field, line)
	}
	start := i + len(key)
	end := start + strings.IndexAny(line[start:], ",}")
	v, err := strconv.ParseFloat(line[start:end], 64)
	if err != nil {
		t.Fatal(err)
	}
	return line[:start] + strconv.FormatFloat(f(v), 'g', -1, 64) + line[end:]
}

// findLine returns the index of the first line containing all of subs.
func findLine(t *testing.T, ls []string, subs ...string) int {
	t.Helper()
outer:
	for i, l := range ls {
		for _, s := range subs {
			if !strings.Contains(l, s) {
				continue outer
			}
		}
		return i
	}
	t.Fatalf("no line with %v", subs)
	return -1
}

func TestCheckSweepAcceptsTheModel(t *testing.T) {
	sp := testSpec()
	if _, err := checkSweep(sp, stream(t, sp), nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSweepRejectsBrokenStreams(t *testing.T) {
	sp := testSpec()
	good := splitLines(stream(t, sp))
	cases := map[string]func([]string) []string{
		"dropped line": func(ls []string) []string { return append(ls[:5:5], ls[6:]...) },
		"swapped pair": func(ls []string) []string { ls[3], ls[4] = ls[4], ls[3]; return ls },
		"slowdown off by 1e-6": func(ls []string) []string {
			i := findLine(t, ls, `"mode":"cached-NVM"`)
			ls[i] = setField(t, ls[i], "slowdown", func(v float64) float64 { return v + 1e-6 })
			return ls
		},
		"DRAM slowdown off by 1e-6": func(ls []string) []string {
			i := findLine(t, ls, `"mode":"DRAM"`)
			ls[i] = setField(t, ls[i], "slowdown", func(v float64) float64 { return v + 1e-6 })
			return ls
		},
		"NVM traffic on a DRAM line": func(ls []string) []string {
			i := findLine(t, ls, `"mode":"DRAM"`)
			ls[i] = setField(t, ls[i], "nvm_read_gbps", func(float64) float64 { return 0.5 })
			return ls
		},
		"DRAM traffic on an uncached-NVM line": func(ls []string) []string {
			i := findLine(t, ls, `"mode":"uncached-NVM"`)
			ls[i] = setField(t, ls[i], "dram_write_gbps", func(float64) float64 { return 0.5 })
			return ls
		},
		"rate FoM off its time": func(ls []string) []string {
			i := findLine(t, ls, `"app":"XSBench"`, `"mode":"cached-NVM"`)
			ls[i] = setField(t, ls[i], "fom", func(v float64) float64 { return v * 1.001 })
			return ls
		},
		"time FoM off time_s": func(ls []string) []string {
			i := findLine(t, ls, `"app":"Hypre"`)
			ls[i] = setField(t, ls[i], "fom", func(v float64) float64 { return v * 1.001 })
			return ls
		},
		"in-band error": func(ls []string) []string { return append(ls, `{"error":"cancelled"}`+"\n") },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			body := strings.Join(mutate(append([]string(nil), good...)), "")
			if _, err := checkSweep(sp, []byte(body), nil); err == nil {
				t.Fatal("broken stream accepted")
			}
		})
	}
}

// probeRef is the in-process reference of an interactive probe: its own
// points and the DRAM points at the same app, scale and threads.
func probeRef(t *testing.T, sp specIn) map[point]float64 {
	t.Helper()
	sp.Modes = benchModes
	ref, err := exhaustive([]specIn{sp})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestCheckProbe(t *testing.T) {
	sp, _ := newGen(5, 1, "test").interactive(nil)
	ref := probeRef(t, sp)
	body := stream(t, sp)
	if _, err := checkSweep(sp, body, ref); err != nil {
		t.Fatal(err)
	}
	if _, err := checkSweep(sp, body, nil); err == nil {
		t.Fatal("a probe without DRAM times was accepted")
	}
	cases := map[string]func(string) string{
		"slowdown off by 1e-6": func(l string) string {
			return setField(t, l, "slowdown", func(v float64) float64 { return v + 1e-6 })
		},
		"time_s off by one ulp": func(l string) string {
			return setField(t, l, "time_s", func(v float64) float64 { return math.Nextafter(v, 2*v) })
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			ls := splitLines(body)
			ls[1] = mutate(ls[1])
			if _, err := checkSweep(sp, []byte(strings.Join(ls, "")), ref); err == nil {
				t.Fatal("broken probe accepted")
			}
		})
	}
}

// planStream renders a plan's point stream as the daemon streams it.
func planStream(t *testing.T, sp specIn) ([]byte, map[point]float64) {
	t.Helper()
	s, err := scenario.ParseSpec(sp.encode(), sp.Name)
	if err != nil {
		t.Fatal(err)
	}
	mgr := session.NewManager(engine.New(platform.NewPurley().Socket(0), 1))
	defer mgr.Close()
	ps, err := mgr.SubmitPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	var enc ndjson.Encoder
	var b bytes.Buffer
	if err := ps.Stream(t.Context(), func(p planner.PlannedPoint) error { b.Write(enc.PlannedPoint(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	ex, err := exhaustive([]specIn{sp})
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), ex
}

func TestCheckPlan(t *testing.T) {
	sp := newGen(3, 0, "test").batchPlan(3)
	body, ex := planStream(t, sp)
	if _, err := checkPlan(sp, body, ex); err != nil {
		t.Fatal(err)
	}
	ls := splitLines(body)
	i := findLine(t, ls, `"evaluated":true`)
	ls[i] = setField(t, ls[i], "time_s", func(v float64) float64 { return math.Nextafter(v, 2*v) })
	if _, err := checkPlan(sp, []byte(strings.Join(ls, "")), ex); err == nil {
		t.Fatal("a wrong evaluated plan value was accepted")
	}
	ls = splitLines(body)
	if _, err := checkPlan(sp, []byte(strings.Join(ls[1:], "")), ex); err == nil {
		t.Fatal("a plan missing a point was accepted")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	// Nearest rank: the smallest x with at least ceil(q*n) samples <= x.
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 15}, {0.05, 15}, {0.2, 15}, {0.21, 20}, {0.3, 20}, {0.4, 20},
		{0.5, 35}, {0.75, 40}, {0.8, 40}, {0.95, 50}, {1, 50},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	// An even count: the median is the lower middle element.
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}
