package workload

import (
	"encoding/json"
	"fmt"

	"repro/internal/jsoncodec"
	"repro/internal/memdev"
	"repro/internal/memsys"
	"repro/internal/units"
)

// The JSON schema lets users define custom applications without writing
// Go: bandwidths are given in GB/s, sizes in GiB, and patterns by name
// ("sequential", "stencil", "strided", "transpose", "gather", "random").

type jsonMix struct {
	Pattern string  `json:"pattern"`
	Weight  float64 `json:"weight"`
}

type jsonPhase struct {
	Name         string    `json:"name"`
	Share        float64   `json:"share"`
	ReadGBps     float64   `json:"read_gbps"`
	WriteGBps    float64   `json:"write_gbps"`
	ReadMix      []jsonMix `json:"read_mix"`
	WritePattern string    `json:"write_pattern"`
	WorkingGiB   float64   `json:"working_set_gib"`
	LatencyBound float64   `json:"latency_bound,omitempty"`
	AliasFactor  float64   `json:"alias_factor,omitempty"`
}

type jsonStructure struct {
	Name      string  `json:"name"`
	SizeGiB   float64 `json:"size_gib"`
	ReadFrac  float64 `json:"read_frac"`
	WriteFrac float64 `json:"write_frac"`
}

type jsonWorkload struct {
	Name            string               `json:"name"`
	Dwarf           string               `json:"dwarf,omitempty"`
	Input           string               `json:"input,omitempty"`
	FootprintGiB    float64              `json:"footprint_gib"`
	BaselineSeconds float64              `json:"baseline_seconds"`
	BaseThreads     int                  `json:"base_threads"`
	FoMName         string               `json:"fom_name,omitempty"`
	FoMUnit         string               `json:"fom_unit,omitempty"`
	FoMHigher       bool                 `json:"fom_higher,omitempty"`
	FoMBase         float64              `json:"fom_base,omitempty"`
	ParallelFrac    float64              `json:"parallel_frac"`
	HTEfficiency    float64              `json:"ht_efficiency"`
	PhaseScalings   map[string][]float64 `json:"phase_scalings,omitempty"` // name -> [parallelFrac, htEff]
	TraceIterations int                  `json:"trace_iterations,omitempty"`
	HTWriteAmp      float64              `json:"ht_write_amplification,omitempty"`
	ThreadReadAmp   float64              `json:"thread_read_amplification,omitempty"`
	Work            float64              `json:"work,omitempty"`
	Seed            uint64               `json:"seed,omitempty"`
	Phases          []jsonPhase          `json:"phases"`
	Structures      []jsonStructure      `json:"structures,omitempty"`
}

func patternByName(s string) (memdev.Pattern, error) {
	for _, p := range memdev.Patterns() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown pattern %q", s)
}

// MarshalJSON encodes the workload in the user-facing schema.
func (w *Workload) MarshalJSON() ([]byte, error) {
	jw := jsonWorkload{
		Name: w.Name, Dwarf: w.Dwarf, Input: w.Input,
		FootprintGiB:    w.Footprint.GiBValue(),
		BaselineSeconds: w.BaselineTime.Seconds(),
		BaseThreads:     w.BaseThreads,
		FoMName:         w.FoM.Name, FoMUnit: w.FoM.Unit,
		FoMHigher: w.FoM.Higher, FoMBase: w.FoM.BaseValue,
		ParallelFrac: w.Scaling.ParallelFrac, HTEfficiency: w.Scaling.HTEfficiency,
		TraceIterations: w.TraceIterations,
		HTWriteAmp:      w.HTWriteAmplification,
		ThreadReadAmp:   w.ThreadReadAmplification,
		Work:            w.Work, Seed: w.Seed,
	}
	if len(w.PhaseScalings) > 0 {
		jw.PhaseScalings = map[string][]float64{}
		for name, s := range w.PhaseScalings {
			jw.PhaseScalings[name] = []float64{s.ParallelFrac, s.HTEfficiency}
		}
	}
	for _, ph := range w.Phases {
		jp := jsonPhase{
			Name: ph.Name, Share: ph.Share,
			ReadGBps:     ph.ReadBW.GBpsValue(),
			WriteGBps:    ph.WriteBW.GBpsValue(),
			WritePattern: ph.WritePattern.String(),
			WorkingGiB:   ph.WorkingSet.GiBValue(),
			LatencyBound: ph.LatencyBound,
			AliasFactor:  ph.AliasFactor,
		}
		for _, c := range ph.ReadMix {
			jp.ReadMix = append(jp.ReadMix, jsonMix{Pattern: c.Pattern.String(), Weight: c.Weight})
		}
		jw.Phases = append(jw.Phases, jp)
	}
	for _, st := range w.Structures {
		jw.Structures = append(jw.Structures, jsonStructure{
			Name: st.Name, SizeGiB: st.Size.GiBValue(),
			ReadFrac: st.ReadFrac, WriteFrac: st.WriteFrac,
		})
	}
	return json.Marshal(jw)
}

// UnmarshalJSON decodes and validates a workload from the user-facing
// schema. Unknown fields are rejected so a typoed knob fails loudly
// instead of silently taking its zero default.
func (w *Workload) UnmarshalJSON(data []byte) error {
	var jw jsonWorkload
	if err := jsoncodec.DecodeStrict(data, &jw, ""); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	out := Workload{
		Name: jw.Name, Dwarf: jw.Dwarf, Input: jw.Input,
		Footprint:    units.GB(jw.FootprintGiB),
		BaselineTime: units.Duration(jw.BaselineSeconds),
		BaseThreads:  jw.BaseThreads,
		FoM: FoM{
			Name: jw.FoMName, Unit: jw.FoMUnit,
			Higher: jw.FoMHigher, BaseValue: jw.FoMBase,
		},
		Scaling:                 Scaling{ParallelFrac: jw.ParallelFrac, HTEfficiency: jw.HTEfficiency},
		TraceIterations:         jw.TraceIterations,
		HTWriteAmplification:    jw.HTWriteAmp,
		ThreadReadAmplification: jw.ThreadReadAmp,
		Work:                    jw.Work,
		Seed:                    jw.Seed,
	}
	if len(jw.PhaseScalings) > 0 {
		out.PhaseScalings = map[string]Scaling{}
		for name, v := range jw.PhaseScalings {
			if len(v) != 2 {
				return fmt.Errorf("workload: phase scaling %q needs [parallelFrac, htEff]", name)
			}
			out.PhaseScalings[name] = Scaling{ParallelFrac: v[0], HTEfficiency: v[1]}
		}
	}
	for _, jp := range jw.Phases {
		wp, err := patternByName(jp.WritePattern)
		if err != nil {
			return err
		}
		var mix memsys.PatternMix
		if len(jp.ReadMix) == 0 {
			mix = memsys.Pure(memdev.Sequential)
		} else {
			var parts []memsys.MixComponent
			for _, c := range jp.ReadMix {
				p, err := patternByName(c.Pattern)
				if err != nil {
					return err
				}
				parts = append(parts, memsys.MixComponent{Pattern: p, Weight: c.Weight})
			}
			mix = memsys.Mix(parts...)
		}
		out.Phases = append(out.Phases, memsys.Phase{
			Name: jp.Name, Share: jp.Share,
			ReadBW:       units.GBps(jp.ReadGBps),
			WriteBW:      units.GBps(jp.WriteGBps),
			ReadMix:      mix,
			WritePattern: wp,
			WorkingSet:   units.GB(jp.WorkingGiB),
			LatencyBound: jp.LatencyBound,
			AliasFactor:  jp.AliasFactor,
		})
	}
	for _, js := range jw.Structures {
		out.Structures = append(out.Structures, Structure{
			Name: js.Name, Size: units.GB(js.SizeGiB),
			ReadFrac: js.ReadFrac, WriteFrac: js.WriteFrac,
		})
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*w = out
	return nil
}
