// Package runner executes sweeps of independent simulator runs on a worker
// pool with a content-addressed run cache.
//
// Reproducing the paper's figures means sweeping benchmark × configuration ×
// controller grids, and every cell is a shared-nothing simulation: the
// workload generator, the processor and the controller are all constructed
// per run from the request's (benchmark, seed, config) triple, and the
// workload engine derives its internal RNG streams from that seed alone.
// Runs therefore commute — executing them on N workers yields bit-identical
// results to executing them serially — and the runner exploits that twice:
//
//   - a worker pool (default GOMAXPROCS) runs requests concurrently while
//     results are always returned in request order;
//   - a content-addressed cache keyed by the request fingerprint (benchmark,
//     seed, window, policy, and a hash of the full configuration) executes
//     each distinct configuration once, so the static baselines that repeat
//     across Figures 5–8 and every sensitivity variant are simulated a
//     single time and their Result reused.
//
// Observability stays per-run: a request carrying a Config.Observer owns its
// registry and series exclusively (no cross-run sharing), is never cached
// (its exports are side effects), and its registry snapshot is merged into
// the runner's aggregate snapshot for sweep-wide export.
package runner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// Request describes one simulator execution in a sweep.
type Request struct {
	// ID labels the run's artifacts (usually the experiment name).
	ID string //simlint:nokey attribution-only label; two IDs for the same run must share one cached Result
	// Bench and Seed identify the workload; the engine derives all of its
	// internal RNG streams from the seed, so a (Bench, Seed) pair names one
	// exact instruction stream regardless of which worker replays it.
	Bench string
	Seed  uint64
	// Window is the number of instructions to simulate.
	Window uint64
	// Config is the machine configuration. A non-nil Config.Observer makes
	// the request uncacheable (its exports are side effects) and must not
	// be shared between requests.
	Config pipeline.Config
	// Controller is the run's reconfiguration policy instance (nil =
	// static). Controllers are stateful: every request needs its own.
	Controller pipeline.Controller //simlint:nokey content identity carried by PolicyKey; an unkeyed Controller makes the request uncacheable
	// PolicyKey is the Controller's content-addressed identity (e.g. a
	// policy spec's "policy:<fingerprint>", see policy.Spec.Key), folded
	// into the cache key in place of the controller itself. Controller
	// names do not identify parameters, so the key never hashes them: a
	// request with a Controller but no PolicyKey is uncacheable, like an
	// unkeyed Source.
	PolicyKey string
	// Source, when non-nil, builds the run's workload generator instead
	// of workload.New(Bench, Seed) — the injection point for spec-
	// compiled and trace-replayed workloads. It is called once per
	// execution attempt on the worker (each attempt needs a fresh
	// stream) and must be safe for concurrent invocation across
	// requests. A sourced request also needs a SourceKey to stay
	// cacheable.
	Source func() (workload.Generator, error) //simlint:nokey content identity carried by SourceKey; an unkeyed Source makes the request uncacheable
	// SourceKey is the Source's content-addressed identity (e.g.
	// "spec:<fingerprint>" or "trace:<fingerprint>"), folded into the
	// cache key so a sourced run can never alias a built-in run — or a
	// run sourced from different content. Cache keys name persisted
	// results across processes, so the key must identify the workload's
	// content, never a file path. Empty with a non-nil Source disables
	// caching for the request.
	SourceKey string
	// NoCache forces execution even when an identical run is cached (e.g.
	// when the controller instance is harvested after the run).
	NoCache bool //simlint:nokey cache-bypass switch, not run identity; the result must stay shareable with cached runs
	// PostRun, when non-nil, runs on the worker after an actual execution
	// (cache hits and intra-batch duplicates skip it).
	PostRun func(pipeline.Result) //simlint:nokey side-effect hook; requests carrying one are uncacheable
}

// policy returns the request's policy identity for keys and error reports.
func (q *Request) policy() string {
	name := fmt.Sprintf("static-%d", q.Config.ActiveClusters)
	if q.Controller != nil {
		name = q.Controller.Name()
	}
	if q.PolicyKey != "" {
		name += "|" + q.PolicyKey
	}
	return name
}

// cacheable reports whether the request may be served from / stored to the
// run cache. Requests carrying a Checker never are: the checker is stateful
// (one instance per run) and its violations are harvested after the run, so
// a cache hit would silently skip validation.
func (q *Request) cacheable() bool {
	if (q.Source != nil && q.SourceKey == "") || (q.Controller != nil && q.PolicyKey == "") {
		// An unkeyed source closure or controller has no content
		// identity to hash: two requests with different closures, or
		// differently parameterized controllers, would collide.
		return false
	}
	return !q.NoCache && q.Config.Observer == nil && q.Config.Checker == nil && q.PostRun == nil
}

// hashField writes one length-prefixed field into the fingerprint hash.
// Length-prefixing (rather than joining fields with a separator byte) makes
// the encoding injective: no choice of field contents can shift bytes across
// a field boundary, so ("ab", "c") can never alias ("a", "bc") — nor can a
// field containing the separator character alias a pair of fields. The
// parameter is a hash.Hash (not io.Writer) because hash writes never fail —
// which is also what satisfies the errflow analysis.
func hashField(h hash.Hash, field string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(field)))
	h.Write(n[:])
	h.Write([]byte(field))
}

// key fingerprints a cacheable request: benchmark, seed, window, policy and
// source identities, and the full configuration. Two requests with equal
// keys produce identical Results.
//
// Every variable-length component is hashed as its own length-prefixed
// field, so no choice of PolicyKey and SourceKey contents can alias another
// pair. The configuration is folded through Config.Fingerprint, the single
// source of truth for which Config fields carry result identity — so the
// runner's cache keys and the snapshot identity check can never drift apart
// (this is also what keeps cache keys shared across the timing-equivalent
// stepper modes: Fingerprint excludes LegacyStepper, and an earlier %+v
// rehash here did not).
func (q *Request) key() uint64 {
	h := fnv.New64a()
	hashField(h, q.Bench)
	hashField(h, fmt.Sprintf("%d", q.Seed))
	hashField(h, fmt.Sprintf("%d", q.Window))
	hashField(h, q.PolicyKey)
	hashField(h, q.SourceKey)
	hashField(h, fmt.Sprintf("%016x", q.Config.Fingerprint()))
	return h.Sum64()
}

// RunError describes one failed run. It serializes into the sweep's failure
// manifest, so every field a post-mortem needs is carried explicitly rather
// than hidden inside the wrapped error.
type RunError struct {
	ID     string `json:"id"`
	Bench  string `json:"bench"`
	Policy string `json:"policy"`
	// Key is the request fingerprint in the same 16-hex-digit form that
	// names checkpoint and persisted-result files ("" for uncacheable
	// requests, whose keys are not computed).
	Key string `json:"key,omitempty"`
	// Message is the failure's one-line description; Dump carries the
	// machine-state dump (deadlocks) or stack trace (panics), if any.
	Message string `json:"message"`
	Dump    string `json:"dump,omitempty"`
	// Transient marks failures worth retrying (wall-clock timeouts);
	// Attempts is how many executions were made before giving up.
	Transient bool `json:"transient,omitempty"`
	Attempts  int  `json:"attempts"`
	// Err is the underlying error (nil after a manifest round-trip).
	Err error `json:"-"`
}

func (e RunError) Error() string {
	msg := e.Message
	if msg == "" && e.Err != nil {
		msg = e.Err.Error()
	}
	return fmt.Sprintf("%s/%s/%s: %s", e.ID, e.Bench, e.Policy, msg)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e RunError) Unwrap() error { return e.Err }

// panicError preserves a recovered panic value with the stack at the point of
// recovery, so the failure manifest can show where a run blew up.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("run panicked: %v", e.value) }

// describe classifies an execution error for the failure manifest: a one-line
// message, an optional state/stack dump, and whether retrying could help.
func describe(err error) (msg, dump string, transient bool) {
	msg = err.Error()
	var pe *panicError
	var de *pipeline.DeadlockError
	var se *pipeline.StoppedError
	switch {
	case errors.As(err, &pe):
		dump = string(pe.stack)
	case errors.As(err, &de):
		dump = fmt.Sprintf(
			"cycle=%d committed=%d lastCommitCycle=%d headSeq=%d tailSeq=%d fetchSeq=%d fetchBlockedSeq=%#x draining=%t active=%d",
			de.Cycle, de.Committed, de.LastCommitCycle, de.HeadSeq, de.TailSeq,
			de.FetchSeq, de.FetchBlockedSeq, de.Draining, de.Active)
	case errors.As(err, &se):
		// A stop raised by the per-run timeout: the run was healthy, just
		// slow. With checkpointing on, a retry resumes from the last
		// snapshot instead of starting over.
		transient = true
	}
	return msg, dump, transient
}

// SweepError aggregates every failed run of a sweep.
type SweepError struct {
	Failures []RunError
	Total    int
}

func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d runs failed:", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		b.WriteString("\n  ")
		b.WriteString(f.Error())
	}
	return b.String()
}

// Stats summarizes the runner's lifetime work plus a live view of the pool.
// It is safe to call Stats concurrently with RunAll, so a monitoring
// goroutine (or a served /metrics endpoint) can watch a sweep in flight.
type Stats struct {
	// Runs counts actual simulator executions.
	Runs int
	// CacheHits counts requests served from the cache, and Deduped
	// requests resolved against an identical request in the same batch.
	CacheHits int
	Deduped   int
	// Failures counts runs that exhausted their retries and failed.
	Failures int

	// Inflight and QueueDepth are live gauges: runs currently executing on
	// workers, and admitted requests still waiting for one.
	Inflight   int
	QueueDepth int
	// Utilization is the pool's busy fraction since the current batch
	// started (0 without an attached Meter).
	Utilization float64
}

// Runner executes request batches. The zero value is ready to use; a Runner
// may be shared across batches (and goroutines) to share its run cache.
type Runner struct {
	// Workers is the pool width (<= 0 selects GOMAXPROCS).
	Workers int
	// DisableCache turns the run cache off (every request executes).
	DisableCache bool

	// Timeout bounds each run attempt's wall-clock time; zero means no
	// limit. A timed-out attempt returns a transient RunError.
	Timeout time.Duration
	// Retries is how many extra attempts a transient failure gets (0 =
	// fail on the first). Permanent failures (panics, deadlocks, invalid
	// requests) never retry.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt;
	// zero selects 100ms.
	Backoff time.Duration

	// CheckpointDir enables crash-safe sweeps. Cacheable requests whose
	// processor supports snapshotting write a checkpoint every
	// CheckpointEvery committed instructions (atomically, tmp+rename) to
	// <dir>/<key>.snap, resume from an existing snapshot on start, and on
	// success delete the snapshot and persist their Result to
	// <dir>/results/<key>.json for LoadPersisted. Empty disables all of it.
	CheckpointDir string
	// CheckpointEvery is the commit-count cadence between snapshots; zero
	// disables intermediate checkpoints (a run still resumes from and
	// cleans up snapshots left by an earlier process).
	CheckpointEvery uint64

	// Meter, when non-nil, instruments the sweep: per-run lifecycle spans
	// (queue wait, cache lookup, execute, checkpoint write, retry backoff),
	// live gauges and an optional JSONL progress stream. The instrumentation
	// is attribution-only — simulated results are byte-identical with or
	// without it — and a nil Meter costs one pointer test per hook.
	Meter *telemetry.SweepMeter

	mu      sync.Mutex
	cache   map[uint64]pipeline.Result
	stats   Stats
	agg     obs.Snapshot
	aggRuns int

	// Live pool gauges, kept independently of Meter so Stats is meaningful
	// on an uninstrumented runner too.
	inflight atomic.Int64
	queued   atomic.Int64
}

// New returns a Runner with the given pool width (<= 0 selects GOMAXPROCS).
func New(workers int) *Runner { return &Runner{Workers: workers} }

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns the runner's lifetime execution counts and live pool gauges.
// Safe to call concurrently with RunAll.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	s.Inflight = int(r.inflight.Load())
	s.QueueDepth = int(r.queued.Load())
	s.Utilization = r.Meter.Utilization()
	return s
}

// AggregateSnapshot returns the merged metrics snapshot of every observed
// run executed so far and the number of runs folded into it.
func (r *Runner) AggregateSnapshot() (obs.Snapshot, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := obs.Snapshot{}
	merged.Merge(r.agg)
	return merged, r.aggRuns
}

func (r *Runner) lookup(key uint64) (pipeline.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.cache[key]
	if ok {
		r.stats.CacheHits++
	}
	return res, ok
}

func (r *Runner) store(key uint64, res pipeline.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		r.cache = make(map[uint64]pipeline.Result)
	}
	r.cache[key] = res
}

// RunAll executes a batch. Results are indexed like reqs regardless of the
// execution order; the returned error, if any, is a *SweepError aggregating
// every failed run (successful runs still have valid Results).
func (r *Runner) RunAll(reqs []Request) ([]pipeline.Result, error) {
	if r.CheckpointDir != "" {
		// Best-effort: if the directory cannot be made, runs proceed
		// unprotected (their snapshot writes fail and disable themselves).
		os.MkdirAll(r.CheckpointDir, 0o755)
	}
	n := len(reqs)
	results := make([]pipeline.Result, n)
	errs := make([]*RunError, n)
	keys := make([]uint64, n)
	dupOf := make([]int, n)

	r.Meter.BatchStart(n, r.workers())
	lookupCur := r.Meter.Now()

	// Resolve the cache and dedup identical requests within the batch
	// before anything runs: the first occurrence executes, later ones copy
	// its result. Both resolutions are order-deterministic.
	seen := make(map[uint64]int)
	todo := make([]int, 0, n)
	for i := range reqs {
		dupOf[i] = -1
		q := &reqs[i]
		if q.cacheable() {
			// Computed even with the cache disabled: the fingerprint
			// also names the run's checkpoint and persisted-result
			// files.
			keys[i] = q.key()
		}
		if r.DisableCache || !q.cacheable() {
			todo = append(todo, i)
			continue
		}
		k := keys[i]
		if res, ok := r.lookup(k); ok {
			results[i] = res
			r.Meter.CacheHit()
			continue
		}
		if j, ok := seen[k]; ok {
			dupOf[i] = j
			r.mu.Lock()
			r.stats.Deduped++
			r.mu.Unlock()
			r.Meter.DedupedRun()
			continue
		}
		seen[k] = i
		todo = append(todo, i)
	}
	r.Meter.SpanSince(telemetry.SpanCacheLookup, lookupCur)
	r.Meter.Enqueued(len(todo))
	r.queued.Add(int64(len(todo)))

	workers := r.workers()
	if workers > len(todo) {
		workers = len(todo)
	}
	if workers <= 1 {
		for _, i := range todo {
			results[i], errs[i] = r.execute(&reqs[i], keys[i])
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = r.execute(&reqs[i], keys[i])
				}
			}()
		}
		for _, i := range todo {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	for i := range reqs {
		if j := dupOf[i]; j >= 0 {
			results[i], errs[i] = results[j], errs[j]
		}
	}
	r.Meter.BatchDone()

	var failures []RunError
	for _, re := range errs {
		if re != nil {
			failures = append(failures, *re)
		}
	}
	if len(failures) > 0 {
		return results, &SweepError{Failures: failures, Total: n}
	}
	return results, nil
}

// retryDelay returns the backoff before retry number `attempt` (1-based count
// of attempts already made): Backoff doubled per attempt, base 100ms.
func (r *Runner) retryDelay(attempt int) time.Duration {
	base := r.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	return base << (attempt - 1)
}

// execute runs one request on the calling worker: it brackets the attempt
// loop with the live pool gauges and the meter's run lifecycle (queue-wait
// and execute spans, run_done progress event), then delegates to
// executeAttempts.
func (r *Runner) execute(q *Request, key uint64) (pipeline.Result, *RunError) {
	r.queued.Add(-1)
	r.inflight.Add(1)
	start := r.Meter.RunStart()
	res, rerr := r.executeAttempts(q, key)
	r.inflight.Add(-1)
	r.Meter.RunDone(q.ID, q.Bench, q.policy(), start, rerr == nil)
	return res, rerr
}

// executeAttempts retries transient failures (timeouts) with exponential
// backoff up to Retries extra attempts. Panics and watchdog deadlocks become
// a structured *RunError carrying the request fingerprint and a
// machine-state or stack dump, so a single bad run fails its request, not
// the whole sweep.
func (r *Runner) executeAttempts(q *Request, key uint64) (pipeline.Result, *RunError) {
	var res pipeline.Result
	var err error
	attempts := 0
	for {
		attempts++
		res, err = r.executeOnce(q, key)
		if err == nil {
			break
		}
		if _, _, transient := describe(err); !transient || attempts > r.Retries {
			break
		}
		boCur := r.Meter.Now()
		time.Sleep(r.retryDelay(attempts))
		r.Meter.SpanSince(telemetry.SpanBackoff, boCur)
	}
	if err != nil {
		msg, dump, transient := describe(err)
		re := &RunError{
			ID: q.ID, Bench: q.Bench, Policy: q.policy(),
			Message: msg, Dump: dump, Transient: transient,
			Attempts: attempts, Err: err,
		}
		if q.cacheable() {
			re.Key = fmt.Sprintf("%016x", key)
		}
		r.mu.Lock()
		r.stats.Failures++
		r.mu.Unlock()
		// The zero Result, not the partial one: a half-run cell must be
		// unmistakably a gap, never mistaken for (much worse) real data.
		return pipeline.Result{}, re
	}

	r.mu.Lock()
	r.stats.Runs++
	r.mu.Unlock()
	if ob := q.Config.Observer; ob != nil && ob.Registry != nil {
		snap := ob.Registry.Snapshot()
		r.mu.Lock()
		r.agg.Merge(snap)
		r.aggRuns++
		r.mu.Unlock()
	}
	if q.PostRun != nil {
		q.PostRun(res)
	}
	if !r.DisableCache && q.cacheable() {
		r.store(key, res)
	}
	if q.cacheable() && r.CheckpointDir != "" {
		// Best-effort: the persisted result lets a -resume process skip
		// this cell without re-simulating it.
		ckCur := r.Meter.Now()
		r.persistResult(key, res)
		r.Meter.SpanSince(telemetry.SpanCheckpoint, ckCur)
	}
	return res, nil
}

// executeOnce makes one attempt at a request: build the workload and
// processor, arm the wall-clock timeout, resume from a checkpoint if one was
// left behind, and run — checkpointing every CheckpointEvery commits so the
// next attempt or process can pick up mid-flight.
func (r *Runner) executeOnce(q *Request, key uint64) (res pipeline.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{value: p, stack: debug.Stack()}
		}
	}()
	build := func() (*pipeline.Processor, error) {
		mkGen := q.Source
		if mkGen == nil {
			mkGen = func() (workload.Generator, error) { return workload.New(q.Bench, q.Seed) }
		}
		gen, gerr := mkGen()
		if gerr != nil {
			return nil, gerr
		}
		return pipeline.New(q.Config, gen, q.Controller)
	}
	p, err := build()
	if err != nil {
		return res, err
	}

	var stop atomic.Bool
	if r.Timeout > 0 {
		p.SetStopFlag(&stop)
		t := time.AfterFunc(r.Timeout, func() { stop.Store(true) })
		defer t.Stop()
	}

	// Crash safety. Only cacheable requests checkpoint (the fingerprint
	// names the file), and only when every attached component supports
	// snapshotting; others simply run unprotected.
	ckPath := ""
	if r.CheckpointDir != "" && q.cacheable() && p.Checkpointable() == nil {
		ckPath = r.checkpointPath(key)
		if lerr := loadCheckpointFile(p, ckPath); lerr != nil {
			// A corrupt or mismatched snapshot can leave the machine
			// half-restored: drop the file and rebuild from scratch.
			os.Remove(ckPath)
			if p, err = build(); err != nil {
				return res, err
			}
			if r.Timeout > 0 {
				p.SetStopFlag(&stop)
			}
		}
	}

	for p.Committed() < q.Window {
		chunk := q.Window - p.Committed()
		if ckPath != "" && r.CheckpointEvery > 0 && chunk > r.CheckpointEvery {
			chunk = r.CheckpointEvery
		}
		if res, err = p.Run(chunk); err != nil {
			return res, err
		}
		if ckPath != "" && r.CheckpointEvery > 0 && p.Committed() < q.Window {
			ckCur := r.Meter.Now()
			if serr := saveCheckpointFile(p, ckPath); serr != nil {
				// Best-effort: a full disk should slow the sweep
				// down, not kill it.
				os.Remove(ckPath)
				ckPath = ""
			}
			r.Meter.SpanSince(telemetry.SpanCheckpoint, ckCur)
		}
	}
	if ckPath != "" {
		os.Remove(ckPath)
	}
	return p.Stats(), nil
}

// Each runs fn(0..n-1) on a pool of the given width (<= 0 selects
// GOMAXPROCS) and aggregates the per-index errors in index order. It serves
// sweeps whose cells are not plain pipeline runs (e.g. the SMT co-schedule
// studies); fn must be safe for concurrent invocation on distinct indices.
func Each(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = safeCall(fn, i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					errs[i] = safeCall(fn, i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var msgs []string
	for i, err := range errs {
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("cell %d: %v", i, err))
		}
	}
	if len(msgs) > 0 {
		return fmt.Errorf("%d of %d cells failed: %s", len(msgs), n, strings.Join(msgs, "; "))
	}
	return nil
}

func safeCall(fn func(int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	return fn(i)
}
