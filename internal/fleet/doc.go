// Package fleet federates nvmserve into a coordinator/worker cluster:
// the distributed sweep fabric behind ROADMAP item 1. A Coordinator
// plugs into session.Manager as its batch Executor, so every sweep and
// plan round submitted over the existing /v1/sweeps and /v1/plans API
// is carved into chunks of engine jobs that registered workers pull
// over HTTP — with streams, deterministic ordering,
// cancellation and error text byte-identical to a local run.
//
// The shared dedup tier is the fingerprint-keyed result store: before
// dispatching a point the coordinator probes its store (the
// resultstore.Prober seam — a disk store answers for every previous
// process too) and serves resident points locally; only cold points
// travel. Workers evaluate chunks through their own engine (with its
// own cache) and post the quantities back; the coordinator commits
// them through engine.CommitRemote, so a point any worker evaluated is
// every later sweep's cache hit, and identical points dispatched by
// concurrent sessions are coalesced fleet-wide (an in-flight table
// parks duplicates until the first dispatch lands).
//
// Scheduling is pull-time carving, the fleet's one dispatch mechanism.
// A batch's dispatchable points become one chunkSource (the remaining
// expansion-index runs); nothing is placed ahead of a pull. A worker
// long-polls /fleet/v1/work and the scheduler answers from one
// id-ordered requeue list first, then carves fresh chunks from the
// front source, FIFO across batches, up to min(max_chunks, Window -
// in flight) with Window 4 by default. Chunk bookkeeping is therefore
// O(workers x window) whatever the sweep size. Chunk size adapts per
// worker: an EWMA of measured points/sec (workers self-report
// elapsed_us per chunk) sizes each carve to ~4 poll windows of the
// pulling worker's throughput, clamped to [1, 256] with a tail guard
// that splits the remainder at least two ways per live worker; the
// static formula only seeds the cold start. Workers pull up to 4
// chunks per long-poll and post their results as one gzip-compressed
// batch (pooled buffers and encoders) to /fleet/v1/results.
//
// Workers heartbeat; one that goes silent past the dead interval (or
// leaves) has its in-flight chunks moved whole onto the requeue list,
// which the next pulls drain before any fresh carve. Points are pure
// and commits are singleflight, so a zombie worker's late result is
// accepted once if nobody recomputed it and discarded otherwise. With
// no live workers the coordinator reclaims the requeued chunks plus
// the uncarved remainder and evaluates locally — a fleet of zero
// degenerates to exactly the single-process path. GET /fleet/v1/stats
// exposes the straggler/saturation analyzer: per-worker throughput,
// in-flight chunks, last chunk size and p50/p95 per-point latency,
// with workers beyond StragglerFactor x the fleet median p50 flagged
// as stragglers.
//
// The failure model composes with internal/faultline: a worker whose
// disk store degrades (append path down, serving read-only from
// memory) self-evicts — it finishes and posts its current chunk,
// deregisters, and exits — so a machine with a failing disk drains
// from the fleet instead of silently computing results that will not
// persist. The wire protocol (protocol.go) is strict JSON end to end,
// decoded by the same strict decoder (internal/jsoncodec) as the
// scenario, traffic and faultline codecs.
package fleet
