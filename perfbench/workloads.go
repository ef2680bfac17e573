package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/scenario"
)

// shape sizes one workload's repetition: the timed unit every run
// repeats, and whose median it reports.
type shape struct {
	sweepScales int // scales per cold batch sweep (216 points each)
	planScales  int // scales per cold plan
	pairs       int // sweep+plan pairs the batch client sends per repetition
	// closed makes the interactive client closed-loop: the next request
	// is due a seeded think time after the previous reply, instead of on
	// an open-loop Poisson schedule.
	closed bool
	boots  int // set-up samples taken per repetition
}

// workloads names the benchmark's workloads.
var workloads = map[string]shape{
	// One nvmserve on its default memory store.
	"serve-mix": {sweepScales: 40, planScales: 10, pairs: 10, boots: 5},
	// nvmserve -store on a fresh directory, restarted between the cold
	// and the re-served phase.
	"store-restart": {sweepScales: 40, planScales: 10, pairs: 3, boots: 1},
	// An nvmserve -fleet coordinator with two -worker -workers 1
	// processes. Its critical requests queue behind batch chunks (p95
	// in the hundreds of milliseconds), so an open loop at
	// interactiveRate falls ever further behind; the interactive client
	// waits for each reply instead, then a mean think time of
	// 1/interactiveRate.
	"fleet-sweep": {sweepScales: 40, planScales: 10, pairs: 8, closed: true, boots: 4},
}

// retainSessions is the -retain every serving nvmserve runs with: it
// keeps only the newest few finished sessions in memory, so that the
// resident-set growth across the cold phase is mostly the result
// store's and not that of retained session outcome arrays. Four covers
// what the benchmark reads back: each client reads a session's status
// right after its stream ends, and the other client submits at most
// one session meanwhile.
const retainSessions = 4

// minRequests is the fewest interactive requests a run carries, so that
// at least ten samples lie beyond its 95th percentile.
const minRequests = 200

// runner drives one run of one workload.
type runner struct {
	workload string
	shape    shape
	bin      string // nvmserve under test
	tmp      string // the run's scratch directory (stores)
	seed     uint64
	batch    *gen    // batch and hit-phase inputs
	tr       *tracer // non-nil while a traced repetition runs

	attempted, failed int
	checksFailed      int
	problems          []string // failed operations and checks

	// fleetSums pairs the first cold sweep of each fleet-sweep
	// repetition with the digest of its stream, for the comparison
	// against a plain nvmserve.
	fleetSums []specSum
}

type specSum struct {
	spec specIn
	sum  [32]byte
}

// op books one operation and reports whether it succeeded.
func (r *runner) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
		return false
	}
	return true
}

// repMetrics is one repetition's measurements.
type repMetrics struct {
	setup                         []float64 // seconds
	pointsPerS, planPointsPerS    float64
	hitPointsPerS, cpuUSPerPoint  float64
	peakRSSMB, storeBytesPerPoint float64
	latencyMS, lateMS, serviceMS  []float64 // interactive requests
	sweepNSPerPoint               []float64 // cold batch sweeps (traced)
	interHits, interMisses        uint64    // traced
	interactive, coldPoints       int
}

// deployment is the set of program processes a repetition runs against.
type deployment struct {
	procs group
	base  string
	store string // disk store directory (store-restart)
}

// settle is how long a probe boot keeps running after its first
// successful /healthz before it is stopped. nvmserve answers /healthz
// before it installs its SIGTERM handler, so a SIGTERM sent at once
// sometimes kills it by the default action instead of shutting it down
// (see CHANGES.md); the probe boots wait that window out.
const settle = 50 * time.Millisecond

// probeClient checks readiness; it is not a load source.
var probeClient = &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// boot starts one nvmserve and returns once /healthz answers, with the
// time that took.
func (r *runner) boot(name string, args ...string) (*proc, string, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, "", 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	start := time.Now()
	p, err := launch(name, r.bin, append([]string{"-addr", addr, "-retain", strconv.Itoa(retainSessions)}, args...)...)
	if err != nil {
		return nil, "", 0, err
	}
	base := "http://" + addr
	for {
		if resp, err := probeClient.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, base, time.Since(start), nil
			}
		}
		if p.exited() || time.Since(start) > 30*time.Second {
			return nil, "", 0, fmt.Errorf("%s did not become healthy: %v", name, p.stop())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// fleetStats is the part of /fleet/v1/stats the benchmark reads.
type fleetStats struct {
	Workers         int    `json:"workers"`
	ChunksRequeued  uint64 `json:"chunks_requeued"`
	PointsRemote    uint64 `json:"points_remote"`
	ResultPosts     uint64 `json:"result_posts"`
	ResultBytesWire uint64 `json:"result_bytes_wire"`
}

// deploy starts the workload's processes and returns them with the
// repetition's set-up samples (store-restart takes its sample at the
// restart instead).
func (r *runner) deploy(rep int) (*deployment, []float64, error) {
	var samples []float64
	switch r.workload {
	case "serve-mix":
		// Extra boots first: one boot lasts milliseconds, so set-up is
		// the median of several.
		for i := 1; i < r.shape.boots; i++ {
			p, _, d, err := r.boot("nvmserve")
			if !r.op(err) {
				return nil, nil, err
			}
			time.Sleep(settle)
			if !r.op(p.stop()) {
				return nil, nil, fmt.Errorf("stopping a probe boot")
			}
			samples = append(samples, d.Seconds())
		}
		p, base, d, err := r.boot("nvmserve")
		if !r.op(err) {
			return nil, nil, err
		}
		return &deployment{procs: group{p}, base: base}, append(samples, d.Seconds()), nil
	case "store-restart":
		dir := filepath.Join(r.tmp, fmt.Sprintf("store-%d", rep))
		p, base, _, err := r.boot("nvmserve -store", "-store", dir)
		if !r.op(err) {
			return nil, nil, err
		}
		return &deployment{procs: group{p}, base: base, store: dir}, nil, nil
	case "fleet-sweep":
		for i := 0; i < r.shape.boots; i++ {
			d, took, err := r.bootFleet()
			if !r.op(err) {
				return nil, nil, err
			}
			samples = append(samples, took.Seconds())
			if i == r.shape.boots-1 {
				return d, samples, nil
			}
			time.Sleep(settle)
			for _, err := range d.procs.stop() {
				r.op(err)
			}
		}
	}
	return nil, nil, fmt.Errorf("unknown workload %q", r.workload)
}

// bootFleet starts a coordinator and two single-engine-worker workers
// and returns once both have joined.
func (r *runner) bootFleet() (*deployment, time.Duration, error) {
	start := time.Now()
	coord, base, _, err := r.boot("nvmserve -fleet", "-fleet")
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{procs: group{coord}, base: base}
	for i := 1; i <= 2; i++ {
		w, err := launch("nvmserve -worker", r.bin, "-worker", "-join", base, "-workers", "1", "-worker-name", "w"+strconv.Itoa(i))
		if err != nil {
			d.procs.stop()
			return nil, 0, err
		}
		d.procs = append(d.procs, w)
	}
	c := newClient(base, "batch", nil)
	defer c.close()
	for {
		var st fleetStats
		if err := c.getJSON("/fleet/v1/stats", &st); err == nil && st.Workers == 2 {
			return d, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			return nil, 0, fmt.Errorf("fleet workers did not join: %v", d.procs.stop())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// interReq is one interactive request of the open-loop client.
type interReq struct {
	spec      specIn
	repeatOf  int // index of the repeated request, or -1
	due, sent time.Time
	res       result
	st        sessionStatus // read in traced repetitions only
}

// phase holds what the cold mixed phase sent and received.
type phase struct {
	specs   []specIn // alternating sweep, plan
	results []result
	inter   []interReq
}

// mixed runs the cold phase: a closed-loop batch client alternating
// cold sweeps and cold plans, and an interactive client sending small
// sweeps at seeded exponential gaps until the batch client is done.
// Both clients only buffer bytes; nothing is parsed until the phase
// ends.
func (r *runner) mixed(base string, specs []specIn, ig *gen) (phase, error) {
	ph := phase{specs: specs}
	batch := newClient(base, "batch", r.tr)
	inter := newClient(base, "critical", r.tr)
	defer batch.close()
	defer inter.close()
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		bodies[i] = sp.encode()
	}
	done := make(chan struct{})
	var berr error
	go func() {
		defer close(done)
		for i, sp := range specs {
			kind := "sweeps"
			if sp.Plan != nil {
				kind = "plans"
			}
			res, err := batch.submit(kind, bodies[i], sp.size())
			if err != nil {
				berr = err
				return
			}
			ph.results = append(ph.results, res)
		}
	}()
	var prev []specIn
	var ierr error
	next := time.Now().Add(ig.gap(interactiveRate))
loop:
	for ierr == nil {
		select {
		case <-done:
			break loop
		case <-time.After(time.Until(next)):
		}
		sp, repeatOf := ig.interactive(prev)
		prev = append(prev, sp)
		q := interReq{spec: sp, repeatOf: repeatOf, due: next, sent: time.Now()}
		q.res, ierr = inter.submit("sweeps", sp.encode(), sp.size())
		if ierr == nil && r.tr != nil {
			// The cache accounting of traced repetitions, read before the
			// retention cap drops the session.
			q.st, ierr = inter.status(q.res.id)
		}
		ph.inter = append(ph.inter, q)
		if r.shape.closed {
			next = q.res.settled
		}
		next = next.Add(ig.gap(interactiveRate))
	}
	<-done
	if berr != nil {
		r.op(berr)
	}
	for range ph.results {
		r.op(nil)
	}
	for range ph.inter {
		r.op(nil)
	}
	if ierr != nil {
		r.op(ierr)
		return ph, ierr
	}
	return ph, berr
}

// hits re-submits every cold sweep under a new name; the daemon must
// serve all of it from its store. Each sweep's status is read after its
// stream, outside the timed wall of the request.
func (r *runner) hits(base string, sweeps []specIn) ([]result, []sessionStatus, error) {
	c := newClient(base, "batch", r.tr)
	defer c.close()
	out := make([]result, 0, len(sweeps))
	sts := make([]sessionStatus, 0, len(sweeps))
	for _, sp := range sweeps {
		sp.Name = r.batch.name("hit")
		res, err := c.submit("sweeps", sp.encode(), sp.size())
		if !r.op(err) {
			return nil, nil, err
		}
		st, err := c.status(res.id)
		if !r.op(err) {
			return nil, nil, err
		}
		out, sts = append(out, res), append(sts, st)
	}
	return out, sts, nil
}

// rep runs one repetition and returns its measurements; failed
// operations and checks are booked on the runner.
func (r *runner) rep(n int) (repMetrics, error) {
	var m repMetrics
	specs := make([]specIn, 0, 2*r.shape.pairs)
	for i := 0; i < r.shape.pairs; i++ {
		specs = append(specs, r.batch.batchSweep(r.shape.sweepScales), r.batch.batchPlan(r.shape.planScales))
	}
	ig := newGen(r.seed, uint64(1+n), fmt.Sprintf("i%d", n))

	d, setup, err := r.deploy(n)
	if err != nil {
		return m, err
	}
	m.setup = setup
	defer func() {
		for _, err := range d.procs.stop() {
			r.op(err)
		}
		if d.store != "" {
			r.op(os.RemoveAll(d.store))
		}
	}()
	rss0, err := d.procs.memKB("VmRSS")
	if err != nil {
		return m, err
	}
	cpu0, err := d.procs.cpu()
	if err != nil {
		return m, err
	}
	ph, err := r.mixed(d.base, specs, ig)
	if err != nil {
		return m, err
	}
	cpu1, err := d.procs.cpu()
	if err != nil {
		return m, err
	}
	rss1, err := d.procs.memKB("VmRSS")
	if err != nil {
		return m, err
	}
	hwm, err := d.procs.memKB("VmHWM")
	if err != nil {
		return m, err
	}

	var sweeps, plans []specIn
	var sweepRes, planRes []result
	var sweepWall, planWall time.Duration
	var sweepPts, planPts, planEvaluated int
	for i, res := range ph.results {
		if sp := ph.specs[i]; sp.Plan != nil {
			plans, planRes = append(plans, sp), append(planRes, res)
			planWall += res.wall()
			planPts += res.points
			planEvaluated += bytes.Count(res.body, []byte(`"evaluated":true`))
		} else {
			sweeps, sweepRes = append(sweeps, sp), append(sweepRes, res)
			sweepWall += res.wall()
			sweepPts += res.points
			m.sweepNSPerPoint = append(m.sweepNSPerPoint, float64(res.wall().Nanoseconds())/float64(res.points))
		}
	}
	interPts := 0
	for _, q := range ph.inter {
		interPts += q.res.points
		m.latencyMS = append(m.latencyMS, ms(q.res.settled.Sub(q.due)))
		m.lateMS = append(m.lateMS, ms(q.sent.Sub(q.due)))
		m.serviceMS = append(m.serviceMS, ms(q.res.wall()))
		m.interactive++
		if q.repeatOf < 0 {
			m.coldPoints += q.res.points
		}
	}
	m.coldPoints += sweepPts + planEvaluated
	m.pointsPerS = float64(sweepPts) / sweepWall.Seconds()
	m.planPointsPerS = float64(planPts) / planWall.Seconds()
	m.cpuUSPerPoint = float64((cpu1 - cpu0).Microseconds()) / float64(sweepPts+planPts+interPts)
	m.storeBytesPerPoint = float64((rss1-rss0)*1024) / float64(m.coldPoints)

	if r.tr != nil {
		// Cache accounting of the interactive requests: the repeats
		// must be hits.
		for _, q := range ph.inter {
			r.op(nil) // the status read
			m.interHits += q.st.Hits
			m.interMisses += q.st.Misses
		}
	}

	if r.workload == "store-restart" {
		// Stop on SIGTERM, measure the store as the daemon left it, and
		// restart on it: the restart is this workload's set-up.
		if !r.op(d.procs[0].stop()) {
			return m, fmt.Errorf("stopping the cold daemon")
		}
		d.procs = nil
		size, err := dirBytes(d.store)
		if err != nil {
			return m, err
		}
		m.storeBytesPerPoint = float64(size) / float64(m.coldPoints)
		p, base, took, err := r.boot("nvmserve -store (restart)", "-store", d.store)
		if !r.op(err) {
			return m, err
		}
		d.procs, d.base = group{p}, base
		m.setup = []float64{took.Seconds()}
		var health struct {
			Records int `json:"store_records"`
		}
		c := newClient(base, "batch", nil)
		err = c.getJSON("/healthz", &health)
		c.close()
		if r.op(err) && health.Records != m.coldPoints {
			r.fail(fmt.Errorf("restarted store holds %d records, want the %d cold points", health.Records, m.coldPoints))
		}
	}

	hitRes, hitSts, err := r.hits(d.base, sweeps)
	if err != nil {
		return m, err
	}
	var hitWall time.Duration
	hitPts := 0
	for _, res := range hitRes {
		hitWall += res.wall()
		hitPts += res.points
	}
	m.hitPointsPerS = float64(hitPts) / hitWall.Seconds()
	hwm2, err := d.procs.memKB("VmHWM")
	if err != nil {
		return m, err
	}
	if r.workload == "store-restart" {
		hwm = max(hwm, hwm2)
	} else {
		hwm = hwm2
	}
	m.peakRSSMB = float64(hwm) / 1024

	// Untimed checks against the live daemon.
	c := newClient(d.base, "batch", nil)
	for i, st := range hitSts {
		if st.State != "done" || st.Hits != uint64(st.Points) || st.Misses != 0 {
			r.fail(fmt.Errorf("re-served sweep %s: state %s, %d hits and %d misses over %d points, want all hits",
				hitRes[i].id, st.State, st.Hits, st.Misses, st.Points))
		}
	}
	if r.workload == "fleet-sweep" {
		var st fleetStats
		if r.op(c.getJSON("/fleet/v1/stats", &st)) {
			if st.PointsRemote != uint64(m.coldPoints) || st.ChunksRequeued != 0 {
				r.fail(fmt.Errorf("fleet: points_remote %d (want the %d cold points), chunks_requeued %d (want 0)",
					st.PointsRemote, m.coldPoints, st.ChunksRequeued))
			}
		}
	}
	c.close()
	for _, err := range d.procs.stop() {
		r.op(err)
	}
	d.procs = nil

	// Output checks, after the program processes have ended.
	for i, sp := range sweeps {
		if _, err := checkSweep(sp, sweepRes[i].body, nil); err != nil {
			r.fail(err)
		}
		if !bytes.Equal(hitRes[i].body, sweepRes[i].body) {
			r.fail(fmt.Errorf("re-served %s differs from its cold stream", sp.Name))
		}
		if r.workload == "fleet-sweep" && i == 0 {
			r.fleetSums = append(r.fleetSums, specSum{sp, sha256.Sum256(sweepRes[i].body)})
		}
	}
	ex, err := exhaustive(plans)
	if err != nil {
		return m, err
	}
	for i, sp := range plans {
		if _, err := checkPlan(sp, planRes[i].body, ex); err != nil {
			r.fail(err)
		}
	}
	// An interactive probe carries no DRAM outcome; its reference times,
	// DRAM's among them, come from an in-process run.
	var probes []specIn
	for _, q := range ph.inter {
		if q.repeatOf < 0 {
			sp := q.spec
			sp.Modes = benchModes
			probes = append(probes, sp)
		}
	}
	ref, err := exhaustive(probes)
	if err != nil {
		return m, err
	}
	for _, q := range ph.inter {
		if q.repeatOf >= 0 {
			if !bytes.Equal(q.res.body, ph.inter[q.repeatOf].res.body) {
				r.fail(fmt.Errorf("interactive repeat %s differs from its original", q.spec.Name))
			}
		} else if _, err := checkSweep(q.spec, q.res.body, ref); err != nil {
			r.fail(err)
		}
	}
	return m, nil
}

// fail books a failed output check.
func (r *runner) fail(err error) {
	r.checksFailed++
	r.problems = append(r.problems, "check: "+err.Error())
}

// exhaustive evaluates the specs' spaces exhaustively in process: the
// reference every evaluated plan point and every interactive probe
// point must equal bit for bit.
func exhaustive(specs []specIn) (map[point]float64, error) {
	eng := engine.New(platform.NewPurley().Socket(0), 0)
	out := map[point]float64{}
	for _, sp := range specs {
		sp.Plan = nil
		s, err := scenario.ParseSpec(sp.encode(), sp.Name)
		if err != nil {
			return nil, err
		}
		outs, err := s.Run(eng)
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			out[point{o.App, o.Scale, o.Mode.String(), o.Threads}] = o.Result.Time.Seconds()
		}
	}
	return out, nil
}

// compareFleet streams the first cold sweep of every fleet-sweep
// repetition again from a plain nvmserve, untimed, and requires
// identical bytes. One sweep a repetition covers every fleet deployment
// at a fraction of the cost of streaming all of them again.
func (r *runner) compareFleet() {
	if len(r.fleetSums) == 0 {
		return
	}
	p, base, _, err := r.boot("nvmserve (plain)")
	if !r.op(err) {
		return
	}
	c := newClient(base, "batch", nil)
	for _, s := range r.fleetSums {
		res, err := c.submit("sweeps", s.spec.encode(), s.spec.size())
		if r.op(err) && sha256.Sum256(res.body) != s.sum {
			r.fail(fmt.Errorf("fleet stream of %s differs from the plain nvmserve stream", s.spec.Name))
		}
	}
	c.close()
	r.op(p.stop())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mkTemp makes the run's scratch directory under the checkout.
func mkTemp(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
