package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// The output checks. They parse the daemon's NDJSON streams and hold
// them against points the benchmark enumerates itself from the specs it
// generated, never through the program's expansion code.

// relTol bounds the rounding two float64 divisions of the same
// quantities may differ by; a model error of 1e-6 is far outside it.
const relTol = 1e-12

// point labels one evaluation point.
type point struct {
	App     string
	Scale   float64
	Mode    string
	Threads int
}

func (p point) String() string {
	return fmt.Sprintf("%s/x%g/%s/%d", p.App, p.Scale, p.Mode, p.Threads)
}

// outcome is one sweep outcome line.
type outcome struct {
	App           string  `json:"app"`
	Mode          string  `json:"mode"`
	Threads       int     `json:"threads"`
	Scale         float64 `json:"scale"`
	TimeS         float64 `json:"time_s"`
	FoM           float64 `json:"fom"`
	FoMUnit       string  `json:"fom_unit"`
	Slowdown      float64 `json:"slowdown"`
	DRAMReadGBps  float64 `json:"dram_read_gbps"`
	DRAMWriteGBps float64 `json:"dram_write_gbps"`
	NVMReadGBps   float64 `json:"nvm_read_gbps"`
	NVMWriteGBps  float64 `json:"nvm_write_gbps"`
}

func (o outcome) point() point { return point{o.App, o.Scale, o.Mode, o.Threads} }

// planned is one plan point line.
type planned struct {
	App        string  `json:"app"`
	Mode       string  `json:"mode"`
	Threads    int     `json:"threads"`
	Scale      float64 `json:"scale"`
	TimeS      float64 `json:"time_s"`
	Evaluated  bool    `json:"evaluated"`
	Round      int     `json:"round"`
	PredictedS float64 `json:"predicted_s"`
	DRAMBytes  int64   `json:"dram_bytes"`
	Feasible   bool    `json:"feasible"`
}

func (p planned) point() point { return point{p.App, p.Scale, p.Mode, p.Threads} }

// expected enumerates a spec's points in the order the daemon must
// stream a sweep: app, scale, mode, threads, innermost last.
func expected(sp specIn) []point {
	out := make([]point, 0, sp.size())
	for _, app := range sp.Apps {
		for _, sc := range sp.Scales {
			for _, mode := range sp.Modes {
				for _, th := range sp.Threads {
					out = append(out, point{app, sc, mode, th})
				}
			}
		}
	}
	return out
}

// parseLines decodes an NDJSON body line by line, rejecting unknown
// fields and in-band error lines.
func parseLines[T any](body []byte) ([]T, error) {
	var out []T
	for i, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"error":`)) {
			return nil, fmt.Errorf("line %d: in-band error %s", i+1, line)
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var v T
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("line %d: trailing data", i+1)
		}
		out = append(out, v)
	}
	return out, nil
}

// checkSweep verifies a sweep's outcome stream: point count, order and
// labels, and the properties the model must have. ref, when not nil,
// holds in-process reference times: every outcome's time_s must equal
// its reference bit for bit, and a stream without DRAM outcomes (the
// interactive probe) takes its DRAM times from it. It returns the parsed
// outcomes.
func checkSweep(sp specIn, body []byte, ref map[point]float64) ([]outcome, error) {
	outs, err := parseLines[outcome](body)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", sp.Name, err)
	}
	want := expected(sp)
	if len(outs) != len(want) {
		return nil, fmt.Errorf("sweep %s: %d outcomes, want %d", sp.Name, len(outs), len(want))
	}
	for i, o := range outs {
		if o.point() != want[i] {
			return nil, fmt.Errorf("sweep %s: line %d is %v, want %v", sp.Name, i+1, o.point(), want[i])
		}
	}
	if err := checkModel(outs, ref); err != nil {
		return nil, fmt.Errorf("sweep %s: %w", sp.Name, err)
	}
	return outs, nil
}

func relEq(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkModel checks the model's invariants across a sweep's outcomes.
// Every (app, scale, threads) they cover needs a DRAM time, from the
// outcomes themselves or else from ref.
func checkModel(outs []outcome, ref map[point]float64) error {
	type cell struct {
		App     string
		Scale   float64
		Threads int
	}
	dram := map[cell]float64{}
	for _, o := range outs {
		if o.Mode == "DRAM" {
			dram[cell{o.App, o.Scale, o.Threads}] = o.TimeS
		}
	}
	// fomTime is fom x time_s per (app, scale) for rate FoMs.
	type appScale struct {
		App   string
		Scale float64
	}
	fomTime := map[appScale]float64{}
	for _, o := range outs {
		p := o.point()
		if !(o.TimeS > 0) || math.IsInf(o.TimeS, 0) {
			return fmt.Errorf("%v: time_s %v", p, o.TimeS)
		}
		if ref != nil {
			want, ok := ref[p]
			if !ok {
				return fmt.Errorf("%v: no reference time", p)
			}
			if math.Float64bits(o.TimeS) != math.Float64bits(want) {
				return fmt.Errorf("%v: time_s %v, reference %v", p, o.TimeS, want)
			}
		}
		d, ok := dram[cell{o.App, o.Scale, o.Threads}]
		if !ok {
			d, ok = ref[point{o.App, o.Scale, "DRAM", o.Threads}]
		}
		if !ok {
			return fmt.Errorf("%v: no DRAM outcome at the same app, scale and threads", p)
		}
		if !relEq(o.Slowdown, o.TimeS/d) {
			return fmt.Errorf("%v: slowdown %v, want time_s/DRAM time_s = %v", p, o.Slowdown, o.TimeS/d)
		}
		switch o.Mode {
		case "DRAM":
			if !relEq(o.Slowdown, 1) {
				return fmt.Errorf("%v: DRAM slowdown %v, want 1", p, o.Slowdown)
			}
			if o.NVMReadGBps != 0 || o.NVMWriteGBps != 0 {
				return fmt.Errorf("%v: DRAM line carries NVM traffic %v/%v", p, o.NVMReadGBps, o.NVMWriteGBps)
			}
		case "uncached-NVM":
			if o.Slowdown < 1 {
				return fmt.Errorf("%v: uncached-NVM slowdown %v below 1", p, o.Slowdown)
			}
			if o.DRAMReadGBps != 0 || o.DRAMWriteGBps != 0 {
				return fmt.Errorf("%v: uncached-NVM line carries DRAM traffic %v/%v", p, o.DRAMReadGBps, o.DRAMWriteGBps)
			}
		}
		if rateFoM[o.App] {
			k := appScale{o.App, o.Scale}
			ft := o.FoM * o.TimeS
			if first, ok := fomTime[k]; !ok {
				fomTime[k] = ft
			} else if !relEq(first, ft) {
				return fmt.Errorf("%v: fom x time_s = %v, want %v as at every mode and thread count", p, ft, first)
			}
		} else if o.FoM != o.TimeS {
			return fmt.Errorf("%v: time FoM %v differs from time_s %v", p, o.FoM, o.TimeS)
		}
	}
	return nil
}

// checkPlan verifies a plan's point stream: every expected point exactly
// once, and every evaluated point's time equal, bit for bit, to the
// exhaustive value. It returns the number of evaluated points.
func checkPlan(sp specIn, body []byte, exhaustive map[point]float64) (int, error) {
	pts, err := parseLines[planned](body)
	if err != nil {
		return 0, fmt.Errorf("plan %s: %w", sp.Name, err)
	}
	want := expected(sp)
	if len(pts) != len(want) {
		return 0, fmt.Errorf("plan %s: %d points, want %d", sp.Name, len(pts), len(want))
	}
	seen := make(map[point]bool, len(want))
	for _, p := range want {
		seen[p] = false
	}
	evaluated := 0
	for i, p := range pts {
		k := p.point()
		done, ok := seen[k]
		if !ok {
			return 0, fmt.Errorf("plan %s: line %d: unexpected point %v", sp.Name, i+1, k)
		}
		if done {
			return 0, fmt.Errorf("plan %s: line %d: point %v twice", sp.Name, i+1, k)
		}
		seen[k] = true
		if !(p.TimeS > 0) {
			return 0, fmt.Errorf("plan %s: %v: time_s %v", sp.Name, k, p.TimeS)
		}
		if !p.Evaluated {
			continue
		}
		evaluated++
		ex, ok := exhaustive[k]
		if !ok {
			return 0, fmt.Errorf("plan %s: no exhaustive value for %v", sp.Name, k)
		}
		if math.Float64bits(p.TimeS) != math.Float64bits(ex) {
			return 0, fmt.Errorf("plan %s: evaluated %v time_s %v, exhaustive %v", sp.Name, k, p.TimeS, ex)
		}
	}
	if evaluated == 0 {
		return 0, fmt.Errorf("plan %s: no evaluated points", sp.Name)
	}
	return evaluated, nil
}
