package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/jsoncodec"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// The spec-file schema: a sweep as data, so new scenarios open without
// recompiling. Modes are the paper's names ("DRAM", "cached-NVM",
// "uncached-NVM"); workload sources beyond registry apps are the inline
// workload schema (internal/workload), resized registry applications
// ("sized") and fused multi-application workloads ("composite"). Every
// preset marshals to this schema byte-stably — the files under specs/
// are generated by nvmbench -export-specs and pinned by test.

type jsonSized struct {
	App   string  `json:"app"`
	Scale float64 `json:"scale"`
	Label string  `json:"label,omitempty"`
}

type jsonPart struct {
	App    string  `json:"app"`
	Weight float64 `json:"weight"`
}

type jsonComposite struct {
	Label string     `json:"label"`
	Parts []jsonPart `json:"parts"`
}

// jsonPlan is the optional "plan" block: the adaptive-planner knobs.
// Fields mirror scenario.Plan; zero values mean "default" and are
// omitted on encode so a defaulted plan round-trips as {"plan": {}}
// only when explicitly present.
type jsonPlan struct {
	Seed       string  `json:"seed,omitempty"`
	BudgetFrac float64 `json:"budget_frac,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	Objective  string  `json:"objective,omitempty"`
	MaxRounds  int     `json:"max_rounds,omitempty"`
}

type jsonSpec struct {
	Name        string               `json:"name"`
	Description string               `json:"description,omitempty"`
	Apps        []string             `json:"apps,omitempty"`
	Workloads   []*workload.Workload `json:"workloads,omitempty"`
	Sized       []jsonSized          `json:"sized,omitempty"`
	Composite   []jsonComposite      `json:"composite,omitempty"`
	Modes       []string             `json:"modes,omitempty"`
	Threads     []int                `json:"threads,omitempty"`
	Scales      []float64            `json:"scales,omitempty"`
	Plan        *jsonPlan            `json:"plan,omitempty"`
}

// MarshalJSON renders an outcome as a flat record — the schema behind
// nvmbench's -format json scenario output: the evaluation point, the
// headline quantities and the per-device achieved traffic, with the mode
// by name rather than enum value.
func (o Outcome) MarshalJSON() ([]byte, error) {
	rec := struct {
		App           string  `json:"app"`
		Mode          string  `json:"mode"`
		Threads       int     `json:"threads"`
		Scale         float64 `json:"scale"`
		TimeSeconds   float64 `json:"time_s"`
		FoM           float64 `json:"fom"`
		FoMUnit       string  `json:"fom_unit,omitempty"`
		Slowdown      float64 `json:"slowdown"`
		DRAMReadGBps  float64 `json:"dram_read_gbps"`
		DRAMWriteGBps float64 `json:"dram_write_gbps"`
		NVMReadGBps   float64 `json:"nvm_read_gbps"`
		NVMWriteGBps  float64 `json:"nvm_write_gbps"`
	}{
		App:           o.App,
		Mode:          o.Mode.String(),
		Threads:       o.Threads,
		Scale:         o.Scale,
		TimeSeconds:   o.Result.Time.Seconds(),
		FoM:           o.Result.FoMValue,
		Slowdown:      o.Result.Slowdown,
		DRAMReadGBps:  o.Result.AvgDRAMRead.GBpsValue(),
		DRAMWriteGBps: o.Result.AvgDRAMWrite.GBpsValue(),
		NVMReadGBps:   o.Result.AvgNVMRead.GBpsValue(),
		NVMWriteGBps:  o.Result.AvgNVMWrite.GBpsValue(),
	}
	if o.Result.Workload != nil {
		rec.FoMUnit = o.Result.Workload.FoM.Unit
	}
	return json.Marshal(rec)
}

// modeAliases maps the accepted shorthand spellings to modes. The
// canonical names are the Mode Stringer's (what spec files encode); the
// aliases are the CLI spellings the commands have historically taken
// plus Intel's marketing names. This is the single mode parser — every
// command and the spec codec resolve names here, so the accepted
// vocabulary cannot drift between surfaces again.
var modeAliases = map[string]memsys.Mode{
	"dram":      memsys.DRAMOnly,
	"cached":    memsys.CachedNVM,
	"memory":    memsys.CachedNVM, // Intel Memory mode
	"uncached":  memsys.UncachedNVM,
	"appdirect": memsys.UncachedNVM, // Intel App Direct mode
}

// ParseMode resolves a memory-configuration name: the paper's canonical
// spellings ("DRAM", "cached-NVM", "uncached-NVM", as the Mode Stringer
// renders them) plus the CLI shorthands ("cached", "uncached",
// "memory", "appdirect"), case-insensitively. Only the three paper-wide
// modes are accepted: Placed needs a per-structure plan no spec file
// can carry (Validate rejects it), so advertising it here would only
// teach a dead end.
func ParseMode(name string) (memsys.Mode, error) {
	for _, m := range memsys.Modes() {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	if m, ok := modeAliases[strings.ToLower(name)]; ok {
		return m, nil
	}
	var names []string
	for _, m := range memsys.Modes() {
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("unknown mode %q (have %s; shorthands dram|cached|uncached|memory|appdirect)",
		name, strings.Join(names, ", "))
}

// MarshalJSON encodes the spec in the file schema. Specs carrying Custom
// builders cannot be serialized: a Go closure has no file form — declare
// the workload as an inline descriptor, a sized app or a composite
// instead.
func (s Spec) MarshalJSON() ([]byte, error) {
	if len(s.Custom) > 0 {
		return nil, fmt.Errorf("scenario %s: Custom builders are Go closures and cannot be marshaled; use Workloads, Sized or Composite", s.Name)
	}
	js := jsonSpec{
		Name:        s.Name,
		Description: s.Description,
		Apps:        s.Apps,
		Workloads:   s.Workloads,
		Threads:     s.Threads,
		Scales:      s.Scales,
	}
	for _, sz := range s.Sized {
		js.Sized = append(js.Sized, jsonSized{App: sz.App, Scale: sz.Scale, Label: sz.Label})
	}
	for _, c := range s.Composite {
		jc := jsonComposite{Label: c.Label}
		for _, p := range c.Parts {
			jc.Parts = append(jc.Parts, jsonPart{App: p.App, Weight: p.Weight})
		}
		js.Composite = append(js.Composite, jc)
	}
	for _, m := range s.Modes {
		js.Modes = append(js.Modes, m.String())
	}
	if s.Plan != nil {
		js.Plan = &jsonPlan{
			Seed:       s.Plan.Seed,
			BudgetFrac: s.Plan.BudgetFrac,
			Threshold:  s.Plan.Threshold,
			Objective:  s.Plan.Objective,
			MaxRounds:  s.Plan.MaxRounds,
		}
	}
	return json.Marshal(js)
}

// UnmarshalJSON decodes the file schema, rejecting unknown fields so a
// typoed axis name fails loudly instead of silently sweeping defaults.
// Structural decoding only; LoadSpec/ParseSpec run Validate on top.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var js jsonSpec
	if err := jsoncodec.DecodeStrict(data, &js, ""); err != nil {
		return err
	}
	out := Spec{
		Name:        js.Name,
		Description: js.Description,
		Apps:        js.Apps,
		Workloads:   js.Workloads,
		Threads:     js.Threads,
		Scales:      js.Scales,
	}
	for _, sz := range js.Sized {
		out.Sized = append(out.Sized, Sized{App: sz.App, Scale: sz.Scale, Label: sz.Label})
	}
	for _, jc := range js.Composite {
		c := Composite{Label: jc.Label}
		for _, p := range jc.Parts {
			c.Parts = append(c.Parts, Part{App: p.App, Weight: p.Weight})
		}
		out.Composite = append(out.Composite, c)
	}
	for _, name := range js.Modes {
		m, err := ParseMode(name)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", js.Name, err)
		}
		out.Modes = append(out.Modes, m)
	}
	if js.Plan != nil {
		out.Plan = &Plan{
			Seed:       js.Plan.Seed,
			BudgetFrac: js.Plan.BudgetFrac,
			Threshold:  js.Plan.Threshold,
			Objective:  js.Plan.Objective,
			MaxRounds:  js.Plan.MaxRounds,
		}
	}
	*s = out
	return nil
}

// Encode renders the spec as an indented spec file (the exact bytes
// WriteSpecs ships under specs/).
func Encode(s Spec) ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseSpec decodes and validates one spec from file bytes. src names
// the source (a path) for error messages; decode errors carry line:col
// positions so a broken file points at its own defect.
func ParseSpec(data []byte, src string) (Spec, error) {
	var s Spec
	if err := jsoncodec.DecodeStrict(data, &s, src); err != nil {
		return Spec{}, err
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("%s: spec has no name", src)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("%s: %w", src, err)
	}
	return s, nil
}

// LoadSpec reads and validates one spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return ParseSpec(data, path)
}

// LoadDir loads every *.json spec in a directory in name order,
// rejecting duplicate spec names across files. All files are attempted:
// a broken spec does not hide defects in the files after it, and the
// returned error (errors.Join) names every failing file.
func LoadDir(dir string) ([]Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json specs in %s", dir)
	}
	var specs []Spec
	var errs []error
	seen := map[string]string{}
	for _, p := range paths {
		s, err := LoadSpec(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if prev, dup := seen[s.Name]; dup {
			errs = append(errs, fmt.Errorf("scenario: %s: duplicate spec name %q (already in %s)", p, s.Name, prev))
			continue
		}
		seen[s.Name] = p
		specs = append(specs, s)
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return specs, nil
}

// WriteSpecs exports the specs as <name>.json files under dir (created
// if missing) — the exporter behind nvmbench -export-specs and the
// generator of the pinned specs/ tree.
func WriteSpecs(dir string, specs []Spec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	for _, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("scenario: cannot export a nameless spec")
		}
		b, err := Encode(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name+".json"), b, 0o644); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}
