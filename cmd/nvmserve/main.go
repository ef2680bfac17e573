// Command nvmserve serves sweep evaluations over HTTP: a long-running
// daemon that accepts declarative scenario specs (the schema under
// specs/), evaluates them asynchronously across the engine's worker
// pool, and streams outcomes back as NDJSON — the serving layer over the
// resumable session machinery in internal/session.
//
// Usage:
//
//	nvmserve [-addr :8080] [-store results/] [-workers 8] [-retain 1024]
//	         [-max-live 0] [-session-timeout 0] [-drain 10s] [-fault-plan plan.json]
//	         [-fleet [-fleet-heartbeat 500ms]]
//	nvmserve -worker -join http://coordinator:8080 [-store results/] [-worker-name lab-3]
//
// Fleet: with -fleet the daemon becomes a coordinator — it additionally
// mounts the /fleet/v1/* worker endpoints, and sweep/plan batches are
// carved into chunks as joined workers pull them (heartbeat-based
// failure recovery re-queues a dead worker's chunks whole; with no
// workers joined everything runs locally, byte-for-byte identical).
// With -worker -join <url> the process runs no HTTP server at all: it
// registers with the named coordinator, pulls chunks, evaluates them on
// its own engine (its -store is the worker-local cache), and posts
// results back. A worker whose disk store degrades self-evicts and
// exits non-zero. See internal/fleet for the protocol.
//
// With -store, evaluated points persist to a disk result store shared
// with nvmbench: a restarted daemon (or a warm nvmbench -store run)
// re-serves every previously computed point as a cache hit, so repeated
// and overlapping sweeps cost only their cold points.
//
// Overload protection: -max-live bounds concurrently live sessions with
// SLO-class-aware headroom — submissions carry an X-SLO-Class header
// (critical, batch, or background; absent means batch), and when the
// daemon fills, background and batch arrivals are shed with 429 +
// Retry-After while critical traffic is admitted up to the full bound.
// -session-timeout puts a server-side deadline on every admitted
// session. -fault-plan opens the result store over a deterministic
// fault-injection layer (internal/faultline) for chaos drills.
//
// API:
//
//	GET    /healthz                  liveness + store accounting
//	GET    /v1/presets               shipped sweep presets
//	POST   /v1/sweeps                submit a spec (body = spec JSON, or empty with ?preset=<name>)
//	GET    /v1/sweeps                all sessions
//	GET    /v1/sweeps/{id}           session status (state, progress, per-origin cache hits/misses)
//	GET    /v1/sweeps/{id}/outcomes  NDJSON outcome stream in deterministic sweep order
//	DELETE /v1/sweeps/{id}           cancel a running sweep
//	POST   /v1/plans                 resolve a spec through the adaptive planner (same body rules)
//	GET    /v1/plans                 all plan sessions
//	GET    /v1/plans/{id}            plan status (per-round evaluated vs predicted, frontier)
//	GET    /v1/plans/{id}/points     NDJSON point stream (evaluations live, predictions at the end)
//	DELETE /v1/plans/{id}            cancel a running plan
//
// Example:
//
//	nvmserve -store results/ &
//	curl -s -X POST --data-binary @specs/beyond-dram.json localhost:8080/v1/sweeps
//	curl -s localhost:8080/v1/sweeps/sweep-000001
//	curl -sN localhost:8080/v1/sweeps/sweep-000001/outcomes
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/faultline"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/resultstore"
	"repro/internal/session"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "", "back the engine with a disk result store at this directory (sweeps persist and resume across restarts)")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	retain := flag.Int("retain", session.DefaultRetain, "retention cap: total sessions kept in memory; the oldest terminal sessions beyond it are evicted (their points stay in the result store); 0 keeps everything")
	maxLive := flag.Int("max-live", 0, "admission bound: maximum concurrently live sessions; beyond class headroom, submissions are shed with 429 + Retry-After (0 = unlimited)")
	sessTimeout := flag.Duration("session-timeout", 0, "server-side deadline per admitted session; a sweep or plan still running when it fires is cancelled between jobs (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain bound: how long in-flight NDJSON streams get to finish on complete lines before the listener is torn down")
	faultPlan := flag.String("fault-plan", "", "open the result store over a deterministic fault-injection plan (internal/faultline JSON; requires -store) — chaos drills only")
	fleetMode := flag.Bool("fleet", false, "coordinator mode: mount the /fleet/v1/* worker endpoints and dispatch sweep/plan batches across joined workers (falls back to local evaluation with no workers)")
	workerMode := flag.Bool("worker", false, "worker mode: join the coordinator named by -join and evaluate pulled chunks instead of serving HTTP")
	join := flag.String("join", "", "coordinator base URL for -worker (e.g. http://127.0.0.1:8080)")
	workerName := flag.String("worker-name", "", "worker label in the coordinator's health report (default host:pid)")
	heartbeat := flag.Duration("fleet-heartbeat", fleet.DefaultHeartbeat, "coordinator: worker heartbeat cadence; a worker silent for 4x this is declared dead and its chunks re-queue")
	fleetWindow := flag.Int("fleet-window", fleet.DefaultWindow, "coordinator: per-worker dispatch window — at most this many chunks in flight per live worker; chunk bookkeeping stays O(workers x window) regardless of sweep size")
	workerDelay := flag.Duration("worker-delay", 0, "worker: deterministic extra latency per evaluated point — scheduler drills and CI smoke only")
	flag.Parse()

	if *workerMode {
		if *join == "" {
			fatal(errors.New("-worker requires -join <coordinator URL>"))
		}
		if *fleetMode {
			fatal(errors.New("-worker and -fleet are exclusive: a worker joins a coordinator, it does not run one"))
		}
		runWorker(workerConfig{
			join:      *join,
			name:      *workerName,
			storeDir:  *storeDir,
			faultPlan: *faultPlan,
			workers:   *workers,
			delay:     *workerDelay,
		})
		return
	}

	var store resultstore.Store = resultstore.NewMemory()
	var disk *resultstore.Disk
	if *faultPlan != "" && *storeDir == "" {
		fatal(errors.New("-fault-plan requires -store"))
	}
	if *storeDir != "" {
		fs := faultline.FS(faultline.OS{})
		if *faultPlan != "" {
			plan, err := faultline.LoadPlan(*faultPlan)
			if err != nil {
				fatal(err)
			}
			fs = faultline.New(plan)
			fmt.Printf("nvmserve: injecting faults from %s (seed %d, %d rules)\n",
				*faultPlan, plan.Seed, len(plan.Rules))
		}
		d, err := resultstore.OpenFS(*storeDir, fs)
		if err != nil {
			fatal(err)
		}
		store, disk = d, d
		fmt.Printf("nvmserve: result store %s (%d records)\n", d.Dir(), d.Persisted())
	}

	eng := engine.NewWithStore(platform.NewPurley().Socket(0), *workers, store)
	mgr := session.NewManager(eng)
	mgr.SetRetain(*retain)
	var coord *fleet.Coordinator
	if *fleetMode {
		coord = fleet.New(eng, fleet.Options{Heartbeat: *heartbeat, Window: *fleetWindow})
		mgr.SetExecutor(coord)
		fmt.Printf("nvmserve: coordinator mode (heartbeat %s, window %d)\n", *heartbeat, *fleetWindow)
	}
	srv := &http.Server{Addr: *addr, Handler: (&server{
		mgr:         mgr,
		disk:        disk,
		adm:         newAdmission(mgr, *maxLive),
		sessTimeout: *sessTimeout,
		coord:       coord,
	}).handler()}

	// Catch signals before the listener starts: once /healthz answers,
	// a SIGTERM must drain and close the store, never kill the daemon
	// by the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Printf("nvmserve: listening on %s (%d workers)\n", *addr, eng.Workers())

	select {
	case err := <-done:
		// ListenAndServe only returns on failure.
		fatal(err)
	case s := <-sig:
		fmt.Printf("nvmserve: %v, shutting down\n", s)
	}

	// Cancel sweeps first: outcome-stream handlers block in
	// Session.Stream waiting for points, so they can only drain — and
	// Shutdown can only return before its deadline — once their sessions
	// reach a terminal state. Cancellation stops the engine between jobs,
	// so only whole results ever reach the store, and every stream ends
	// on a complete NDJSON line (the cancelled session's error line).
	mgr.Close()
	if coord != nil {
		coord.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "nvmserve: shutdown:", err)
	}
	if err := store.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvmserve:", err)
	os.Exit(1)
}
