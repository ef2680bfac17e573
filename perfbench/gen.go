package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// The make-up of every generated input. The benchmark owns these lists:
// the program receives them only inside the specs it is sent, and the
// output checks enumerate expected points from them, not through the
// program's own expansion.
var (
	benchApps    = []string{"HACC", "Laghos", "ScaLAPACK", "XSBench", "Hypre", "SuperLU", "BoxLib", "FFT"}
	benchModes   = []string{"DRAM", "cached-NVM", "uncached-NVM"}
	benchThreads = []int{1, 2, 4, 8, 16, 24, 32, 40, 48}
	// rateFoM marks the applications whose figure of merit is a rate
	// (it scales inversely with run time); the others report run time.
	rateFoM = map[string]bool{"XSBench": true, "SuperLU": true, "FFT": true}

	probeApps    = []string{"XSBench"}
	probeModes   = []string{"cached-NVM"}
	probeThreads = []int{24, 48}
)

const (
	// Footprint scales are drawn log-uniformly from [minScale, maxScale]
	// on a grid of scaleQuantum, and never drawn twice in a run, so a
	// fresh draw is a cold point.
	minScale     = 0.25
	maxScale     = 8
	scaleQuantum = 1e-6

	// Interactive requests are the probe of the repository's canonical
	// serving load, traffic/bursty-two-class.json: XSBench on cached-NVM
	// at 24 and 48 threads (two points), sent as critical at that load's
	// mean interactive rate, rate 24/s x rate_fraction 0.75 = 18/s. That
	// file repeats one probe at the default scale, so every request after
	// its first is a cache hit; here a request probes a fresh scale, so
	// that the cold solve lies on the critical path, and every
	// repeatEvery-th request repeats an earlier request of the same
	// repetition point for point.
	interactiveRate = 18.0
	repeatEvery     = 4
)

// planBlock is the spec's optional "plan" block.
type planBlock struct {
	Seed       string  `json:"seed,omitempty"`
	BudgetFrac float64 `json:"budget_frac,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
}

// specIn is a generated spec in the repository's spec-file schema.
type specIn struct {
	Name    string     `json:"name"`
	Apps    []string   `json:"apps"`
	Modes   []string   `json:"modes"`
	Threads []int      `json:"threads"`
	Scales  []float64  `json:"scales"`
	Plan    *planBlock `json:"plan,omitempty"`
}

// size is the number of points the spec expands to.
func (s specIn) size() int { return len(s.Apps) * len(s.Modes) * len(s.Threads) * len(s.Scales) }

func (s specIn) encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // specIn holds only plain data
	}
	return b
}

// gen draws every input of one run from its seed. Scales are never
// reused within a run, so every batch point is cold.
type gen struct {
	rng   *rand.Rand
	used  map[int64]bool
	odd   int64 // 1 when scales fall on odd multiples of scaleQuantum
	seq   int
	label string
}

// newGen returns the generator of one input stream of a run. Streams
// are independent, so how many interactive requests one repetition
// happens to send does not change the inputs of the next. Stream 0 (the
// batch inputs) draws its scales on even multiples of scaleQuantum and
// every other stream on odd ones, so an interactive request never lands
// on a batch point and every point the benchmark counts as cold is.
func newGen(seed, stream uint64, label string) *gen {
	g := &gen{rng: rand.New(rand.NewPCG(seed, stream)), used: map[int64]bool{},
		label: fmt.Sprintf("%d-%s", seed, label)}
	if stream != 0 {
		g.odd = 1
	}
	return g
}

// name returns a fresh spec name: the daemon accounts cache hits per
// spec name, so every submission gets its own.
func (g *gen) name(kind string) string {
	g.seq++
	return fmt.Sprintf("%s-%s-%06d", kind, g.label, g.seq)
}

func (g *gen) scale() float64 {
	for {
		u := g.rng.Float64()
		n := int64(math.Round(minScale*math.Pow(maxScale/minScale, u)/scaleQuantum))&^1 | g.odd
		if !g.used[n] {
			g.used[n] = true
			return float64(n) * scaleQuantum
		}
	}
}

func (g *gen) scales(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.scale()
	}
	return out
}

// batchSweep is the cold batch sweep: every app, mode and thread count
// on n fresh scales.
func (g *gen) batchSweep(n int) specIn {
	return specIn{Name: g.name("sweep"), Apps: benchApps, Modes: benchModes, Threads: benchThreads, Scales: g.scales(n)}
}

// batchPlan is the cold plan: the batch sweep's shape on n fresh scales,
// resolved by the planner with its default edges seed.
func (g *gen) batchPlan(n int) specIn {
	sp := g.batchSweep(n)
	sp.Name = g.name("plan")
	sp.Plan = &planBlock{Seed: "edges", BudgetFrac: 0.5, Threshold: 0.05}
	return sp
}

// interactive returns the next interactive request of a repetition,
// given the ones sent before it. Every repeatEvery-th request repeats
// an earlier one point for point; the index of that one is returned, or
// -1 for a request on a fresh scale.
func (g *gen) interactive(prev []specIn) (specIn, int) {
	if len(prev)%repeatEvery == repeatEvery-1 {
		i := g.rng.IntN(len(prev))
		sp := prev[i]
		sp.Name = g.name("interactive")
		return sp, i
	}
	return specIn{Name: g.name("interactive"), Apps: probeApps, Modes: probeModes, Threads: probeThreads, Scales: []float64{g.scale()}}, -1
}

// gap draws the next exponential inter-arrival gap of a Poisson
// process at rate per second.
func (g *gen) gap(rate float64) time.Duration {
	return time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
}
