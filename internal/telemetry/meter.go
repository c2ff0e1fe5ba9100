package telemetry

import (
	"sync/atomic"

	"clustersim/internal/obs"
)

// Span classifies one timed section of a sweep run's lifecycle.
type Span uint8

// Run-lifecycle spans.
const (
	// SpanQueueWait is the time a request spent admitted but waiting for
	// a worker.
	SpanQueueWait Span = iota
	// SpanCacheLookup is run-cache resolution time.
	SpanCacheLookup
	// SpanExecute is actual simulator execution time.
	SpanExecute
	// SpanCheckpoint is crash-safety snapshot write time.
	SpanCheckpoint
	// SpanBackoff is retry backoff sleep time.
	SpanBackoff
	// NumSpans is the span-kind count.
	NumSpans
)

// spanNames index the per-span counters, in Span order.
var spanNames = [NumSpans]string{
	"queue_wait", "cache_lookup", "execute", "checkpoint", "backoff",
}

// String returns the span's metric name segment.
func (s Span) String() string {
	if int(s) < len(spanNames) {
		return spanNames[s]
	}
	return "unknown"
}

// SweepMeter instruments a runner: per-run spans, live gauges and a JSONL
// progress stream. A nil *SweepMeter is the disabled state — every method
// is nil-safe and the runner's hooks reduce to one pointer test — so an
// uninstrumented sweep pays nothing.
//
// All state is atomic: one meter serves a whole worker pool, and its
// registry may be served over HTTP (obs.Serve) while the sweep runs. Each
// count the registry exports lives only in its obs counter; progress events
// and SpanNanos read it back from there.
type SweepMeter struct {
	progress *ProgressWriter

	workers atomic.Int64
	batchNs atomic.Int64 // nanos() at the last BatchStart

	total, inflight, queued atomic.Int64
	busyNs                  atomic.Int64

	gInflight, gQueueDepth, gUtilization, gHitRate   *obs.Gauge
	cRuns, cCompleted, cCacheHits, cDeduped, cFailed *obs.Counter
	cSpans                                           [NumSpans]*obs.Counter
	hRunMs, hQueueWaitMs                             *obs.Histogram
}

// NewSweepMeter returns a meter exporting live gauges into reg (nil: a
// private registry nothing exports) and progress events into progress
// (nil: no stream).
func NewSweepMeter(reg *obs.Registry, progress *ProgressWriter) *SweepMeter {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	msBounds := []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}
	m := &SweepMeter{
		progress:     progress,
		gInflight:    reg.Gauge("sweep.inflight"),
		gQueueDepth:  reg.Gauge("sweep.queue_depth"),
		gUtilization: reg.Gauge("sweep.worker_utilization"),
		gHitRate:     reg.Gauge("sweep.cache_hit_rate"),
		cRuns:        reg.Counter("sweep.runs"),
		cCompleted:   reg.Counter("sweep.completed"),
		cCacheHits:   reg.Counter("sweep.cache_hits"),
		cDeduped:     reg.Counter("sweep.deduped"),
		cFailed:      reg.Counter("sweep.failures"),
		hRunMs:       reg.Histogram("sweep.run_ms", msBounds),
		hQueueWaitMs: reg.Histogram("sweep.queue_wait_ms", msBounds),
	}
	for s := Span(0); s < NumSpans; s++ {
		m.cSpans[s] = reg.Counter("sweep.span." + s.String() + "_ns")
	}
	return m
}

// Now returns the meter's monotonic clock reading; the runner brackets its
// spans with it. Nil-safe (a disabled meter returns 0 and the bracketing
// arithmetic is dead).
func (m *SweepMeter) Now() int64 {
	if m == nil {
		return 0
	}
	return nanos()
}

// BatchStart begins a batch of total requests on a pool of the given width.
func (m *SweepMeter) BatchStart(total, workers int) {
	if m == nil {
		return
	}
	m.workers.Store(int64(workers))
	m.batchNs.Store(nanos())
	m.total.Add(int64(total))
	m.progress.Emit(&ProgressEvent{
		Event:   "batch_start",
		Total:   m.total.Load(),
		Workers: workers,
	})
}

// Enqueued records n requests admitted to the worker queue.
func (m *SweepMeter) Enqueued(n int) {
	if m == nil {
		return
	}
	m.queued.Add(int64(n))
	m.gQueueDepth.Set(float64(m.queued.Load()))
}

// CacheHit resolves one request from the run cache.
func (m *SweepMeter) CacheHit() {
	if m == nil {
		return
	}
	m.cCacheHits.Inc()
	m.cCompleted.Inc()
	m.updateGauges()
}

// DedupedRun resolves one request against an identical in-batch request.
func (m *SweepMeter) DedupedRun() {
	if m == nil {
		return
	}
	m.cDeduped.Inc()
	m.cCompleted.Inc()
	m.updateGauges()
}

// RunStart marks a worker picking a request up, charging its queue wait,
// and returns the execution span cursor.
func (m *SweepMeter) RunStart() int64 {
	if m == nil {
		return 0
	}
	now := nanos()
	wait := now - m.batchNs.Load()
	if wait < 0 {
		wait = 0
	}
	m.addSpan(SpanQueueWait, wait)
	m.hQueueWaitMs.Observe(float64(wait) / 1e6)
	m.queued.Add(-1)
	m.inflight.Add(1)
	m.updateGauges()
	return now
}

// RunDone finishes the run started at cursor start: charges the execute
// span, updates gauges and emits a run_done progress event.
func (m *SweepMeter) RunDone(id, bench, policy string, start int64, ok bool) {
	if m == nil {
		return
	}
	d := nanos() - start
	if d < 0 {
		d = 0
	}
	m.addSpan(SpanExecute, d)
	m.busyNs.Add(d)
	m.inflight.Add(-1)
	m.cRuns.Inc()
	m.cCompleted.Inc()
	if !ok {
		m.cFailed.Inc()
	}
	m.hRunMs.Observe(float64(d) / 1e6)
	m.updateGauges()
	okv := ok
	m.progress.Emit(&ProgressEvent{
		Event:      "run_done",
		ID:         id,
		Bench:      bench,
		Policy:     policy,
		OK:         &okv,
		RunMs:      d / 1e6,
		Completed:  count(m.cCompleted),
		Total:      m.total.Load(),
		Inflight:   m.inflight.Load(),
		QueueDepth: m.queued.Load(),
		Runs:       count(m.cRuns),
		CacheHits:  count(m.cCacheHits),
		Deduped:    count(m.cDeduped),
		Failed:     count(m.cFailed),
	})
}

// SpanSince charges the time since cursor to span s and returns the new
// cursor — the runner brackets cache lookups, checkpoint writes and retry
// backoffs with it.
func (m *SweepMeter) SpanSince(s Span, cursor int64) int64 {
	if m == nil {
		return 0
	}
	now := nanos()
	m.addSpan(s, now-cursor)
	return now
}

// BatchDone closes a batch with a summary progress event.
func (m *SweepMeter) BatchDone() {
	if m == nil {
		return
	}
	m.updateGauges()
	m.progress.Emit(&ProgressEvent{
		Event:     "batch_done",
		Completed: count(m.cCompleted),
		Total:     m.total.Load(),
		Runs:      count(m.cRuns),
		CacheHits: count(m.cCacheHits),
		Deduped:   count(m.cDeduped),
		Failed:    count(m.cFailed),
	})
}

// Inflight returns the number of runs executing on workers.
func (m *SweepMeter) Inflight() int {
	if m == nil {
		return 0
	}
	return int(m.inflight.Load())
}

// QueueDepth returns the number of admitted requests waiting for a worker.
func (m *SweepMeter) QueueDepth() int {
	if m == nil {
		return 0
	}
	return int(m.queued.Load())
}

// Utilization returns the fraction of worker-time spent executing runs
// since the last BatchStart (0 when unknown).
func (m *SweepMeter) Utilization() float64 {
	if m == nil {
		return 0
	}
	w := m.workers.Load()
	elapsed := nanos() - m.batchNs.Load()
	if w <= 0 || elapsed <= 0 {
		return 0
	}
	u := float64(m.busyNs.Load()) / (float64(elapsed) * float64(w))
	if u > 1 {
		u = 1
	}
	return u
}

// SpanNanos returns the accumulated nanoseconds charged to span s.
func (m *SweepMeter) SpanNanos(s Span) int64 {
	if m == nil {
		return 0
	}
	return count(m.cSpans[s])
}

// count reads an exported counter as a progress-event count.
func count(c *obs.Counter) int64 { return int64(c.Value()) }

func (m *SweepMeter) addSpan(s Span, d int64) {
	if d < 0 {
		d = 0
	}
	m.cSpans[s].Add(uint64(d))
}

// updateGauges refreshes the live registry gauges.
func (m *SweepMeter) updateGauges() {
	m.gInflight.Set(float64(m.inflight.Load()))
	m.gQueueDepth.Set(float64(m.queued.Load()))
	m.gUtilization.Set(m.Utilization())
	if done := m.cCompleted.Value(); done > 0 {
		m.gHitRate.Set(float64(m.cCacheHits.Value()) / float64(done))
	}
}
