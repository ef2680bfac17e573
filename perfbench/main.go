// Command perfbench is the repository's benchmark. It builds nvmserve
// from the tree under test, drives one of three workloads against it as
// subprocesses over loopback HTTP, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of its standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"points_per_s": {"value": ..., "unit": "1/s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload fleet-sweep --seed 1 --seconds 30 --steady 5
//
// --steady N runs the workload N times on seeds seed..seed+N-1 and
// prints, per metric, the median, the quartiles and the max/min ratio.
// See perfbench/README.md for the workloads, the metrics and the
// measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark prints.
var units = map[string]string{
	"setup_s":               "s",
	"points_per_s":          "1/s",
	"plan_points_per_s":     "1/s",
	"hit_points_per_s":      "1/s",
	"cpu_us_per_point":      "us",
	"peak_rss_mb":           "MB",
	"store_bytes_per_point": "B",

	"scenario.decode_us":                    "us",
	"scenario.expand_ns":                    "ns",
	"engine.key_ns":                         "ns",
	"engine.cold_ns":                        "ns",
	"engine.hit_ns":                         "ns",
	"engine.hit_ratio":                      "ratio",
	"memsys.solve_ns":                       "ns",
	"resultstore.memory_acquire_ns":         "ns",
	"resultstore.memory_bytes_per_point":    "B",
	"resultstore.disk_commit_ns":            "ns",
	"resultstore.open_ms":                   "ms",
	"resultstore.compact_ms":                "ms",
	"resultstore.open_compacted_ms":         "ms",
	"resultstore.fault_in_ns":               "ns",
	"resultstore.live_bytes_per_point":      "B",
	"resultstore.compacted_bytes_per_point": "B",
	"session.stream_ns":                     "ns",
	"session.first_outcome_us":              "us",
	"ndjson.encode_ns":                      "ns",
	"ndjson.bytes_per_point":                "B",
	"nvmserve.http_ns":                      "ns",
	"nvmserve.request_overhead_us":          "us",
	"fleet.encode_ns":                       "ns",
	"fleet.wire_bytes_per_point":            "B",
	"fleet.inproc_ns":                       "ns",
	"fleet.result_posts":                    "count",
	"fleet.chunks_requeued":                 "count",
	"planner.fit_ns":                        "ns",
	"planner.evaluated_share":               "ratio",
	"planner.pred_err_p90":                  "ratio",
	"loadgen.late_ms_p95":                   "ms",
	"trace.overhead_pct":                    "%",
}

func main() {
	name := flag.String("workload", "", "workload: serve-mix, store-restart or fleet-sweep")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	steady := flag.Int("steady", 0, "run the workload this many times on consecutive seeds and print each metric's spread")
	flag.Parse()
	sh, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --trace %d\n", *name, *trace)
		os.Exit(2)
	}
	if err := run(*name, sh, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, sh shape, seed uint64, seconds time.Duration, traced bool, steady int) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	tmp, err := mkTemp(filepath.Join(root, ".bench_build", "perfbench", "runs"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// An interrupted run stops what it started and removes its stores.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		stopRunning()
		os.RemoveAll(tmp)
		fmt.Fprintln(os.Stderr, "perfbench:", s)
		os.Exit(1)
	}()
	bin, err := buildServe(tmp)
	if err != nil {
		return err
	}
	if steady > 0 {
		return steadiness(name, sh, bin, tmp, seed, seconds, traced, steady)
	}
	rep, err := runOnce(name, sh, bin, tmp, seed, seconds, traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOnce runs the workload for the given time and returns its report.
func runOnce(name string, sh shape, bin, tmp string, seed uint64, seconds time.Duration, traced bool) (report, error) {
	r := &runner{workload: name, shape: sh, bin: bin, tmp: tmp, seed: seed, batch: newGen(seed, 0, "b")}
	start := time.Now()
	var tr *tracer
	var layers map[string]float64
	if traced {
		tr = newTracer()
		var err error
		if layers, err = ladder(newGen(seed, 1<<32, "ladder"), sh, tr, tmp, r.fail); err != nil {
			return report{}, fmt.Errorf("layer ladder: %w", err)
		}
	}
	// Repetition 0 is an untimed warm-up. In a traced run, repetitions
	// alternate between untraced and traced, so that the tracing
	// overhead is measured on the same inputs and host state. However
	// slow the program, the run ends after limit.
	limit := max(seconds, 2*time.Minute)
	var plain, withTrace []repMetrics
	requests := 0
	for n := 0; time.Since(start) < limit; n++ {
		r.tr = nil
		if traced && n%2 == 0 && n > 0 {
			r.tr = tr
		}
		m, err := r.rep(n)
		switch {
		case err != nil:
			// The failed operation, if any, is booked where it failed; the
			// repetition's outputs went unchecked.
			r.fail(fmt.Errorf("repetition %d abandoned: %w", n, err))
		case n == 0:
		case r.tr != nil:
			withTrace = append(withTrace, m)
		default:
			plain = append(plain, m)
			requests += m.interactive
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: rep %d traced=%v: %.0f points/s, %.0f plan points/s, %.0f hit points/s, %.3f us CPU/point, %.4f s setup\n",
				n, r.tr != nil, m.pointsPerS, m.planPointsPerS, m.hitPointsPerS, m.cpuUSPerPoint, median(m.setup))
		}
		enough := len(plain) >= 3 && requests >= minRequests
		if traced {
			enough = len(plain) > 0 && len(withTrace) > 0
		}
		if time.Since(start) >= seconds && enough {
			break
		}
	}
	r.tr = nil
	r.compareFleet()
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	if len(plain) == 0 {
		return report{}, fmt.Errorf("no repetition completed")
	}
	e2e := endToEnd(plain)
	lat := collect(plain, func(m repMetrics) []float64 { return m.latencyMS })
	// The interactive latency is reported here rather than gated: its
	// run-to-run spread on a small shared host exceeds any usable bound
	// (perfbench/README.md).
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d timed repetitions, %d interactive requests, request_ms_p50 %.3f, request_ms_p95 %.3f (latency ms q10 %.3f q25 %.3f q75 %.3f q90 %.3f), service p50 %.3f ms, generator late p95 %.3f ms\n",
		name, seed, len(plain), requests, quantile(lat, 0.5), quantile(lat, 0.95),
		quantile(lat, 0.1), quantile(lat, 0.25), quantile(lat, 0.75), quantile(lat, 0.9),
		median(collect(plain, func(m repMetrics) []float64 { return m.serviceMS })),
		quantile(collect(plain, func(m repMetrics) []float64 { return m.lateMS }), 0.95))
	out := report{Correct: r.checksFailed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	vals := e2e
	if traced {
		vals = perLayer(layers, plain, withTrace)
		path := filepath.Join(filepath.Dir(filepath.Dir(tmp)), fmt.Sprintf("trace-%s-%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return report{}, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n%s", len(tr.spans), path, tr.summary())
	}
	for k, v := range vals {
		out.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	return out, nil
}

// collect concatenates one sample list over repetitions.
func collect(ms []repMetrics, f func(repMetrics) []float64) []float64 {
	var out []float64
	for _, m := range ms {
		out = append(out, f(m)...)
	}
	return out
}

// medianOver is the median of one per-repetition figure.
func medianOver(ms []repMetrics, f func(repMetrics) float64) float64 {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = f(m)
	}
	return median(xs)
}

// endToEnd reduces the untraced repetitions to the end-to-end metrics.
func endToEnd(ms []repMetrics) map[string]float64 {
	return map[string]float64{
		"setup_s":               median(collect(ms, func(m repMetrics) []float64 { return m.setup })),
		"points_per_s":          medianOver(ms, func(m repMetrics) float64 { return m.pointsPerS }),
		"plan_points_per_s":     medianOver(ms, func(m repMetrics) float64 { return m.planPointsPerS }),
		"hit_points_per_s":      medianOver(ms, func(m repMetrics) float64 { return m.hitPointsPerS }),
		"cpu_us_per_point":      medianOver(ms, func(m repMetrics) float64 { return m.cpuUSPerPoint }),
		"peak_rss_mb":           medianOver(ms, func(m repMetrics) float64 { return m.peakRSSMB }),
		"store_bytes_per_point": medianOver(ms, func(m repMetrics) float64 { return m.storeBytesPerPoint }),
	}
}

// perLayer assembles the per-layer metrics: the ladder's, plus those
// derived from the traced repetitions and the tracing overhead.
func perLayer(layers map[string]float64, plain, traced []repMetrics) map[string]float64 {
	out := map[string]float64{}
	for k, v := range layers {
		out[k] = v
	}
	var hits, misses uint64
	for _, m := range traced {
		hits += m.interHits
		misses += m.interMisses
	}
	out["engine.hit_ratio"] = float64(hits) / float64(hits+misses)
	sweepNS := median(collect(traced, func(m repMetrics) []float64 { return m.sweepNSPerPoint }))
	out["nvmserve.http_ns"] = sweepNS - layers["session.stream_ns"]
	lat := quantile(collect(traced, func(m repMetrics) []float64 { return m.latencyMS }), 0.5)
	out["nvmserve.request_overhead_us"] = lat*1e3 - layers["session.first_outcome_us"]
	out["loadgen.late_ms_p95"] = quantile(collect(traced, func(m repMetrics) []float64 { return m.lateMS }), 0.95)
	p := medianOver(plain, func(m repMetrics) float64 { return m.pointsPerS })
	t := medianOver(traced, func(m repMetrics) float64 { return m.pointsPerS })
	out["trace.overhead_pct"] = (p - t) / p * 100
	return out
}

// steadiness runs the workload n times on consecutive seeds and prints
// each metric's median, quartiles, interquartile spread over the median
// and max/min ratio; bounds in BENCHMARK.json are set from this output.
func steadiness(name string, sh shape, bin, tmp string, seed uint64, seconds time.Duration, traced bool, n int) error {
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		rep, err := runOnce(name, sh, bin, tmp, seed+uint64(i), seconds, traced)
		if err != nil {
			return err
		}
		if !rep.Correct || rep.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v, %d of %d operations failed", seed+uint64(i), rep.Correct, rep.Failed, rep.Attempted)
		}
		for k, m := range rep.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s, %d runs from seed %d, %v each\n", name, n, seed, seconds)
	fmt.Fprintf(&b, "%-40s %14s %14s %14s %9s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "max/min")
	for _, k := range keys {
		xs := vals[k]
		med, q1, q3 := median(xs), quantile(xs, 0.25), quantile(xs, 0.75)
		fmt.Fprintf(&b, "%-40s %14.6g %14.6g %14.6g %9.4f %8.4f\n", k, med, q1, q3, (q3-q1)/med, quantile(xs, 1)/quantile(xs, 0))
	}
	fmt.Print(b.String())
	return nil
}
