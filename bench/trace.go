package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"clustersim/internal/isa"
	"clustersim/internal/pipeline"
	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// Layers are the simulator's packages a span's self time is charged to;
// "bench" is the benchmark's own code between calls.
const (
	layerBench       = "bench"
	layerExperiments = "experiments"
	layerRunner      = "runner"
	layerPipeline    = "pipeline"
	layerCore        = "core"
	layerWorkload    = "workload"
	layerSnap        = "snap"
)

// traceLayers lists the layers in report order.
var traceLayers = []string{layerBench, layerExperiments, layerRunner, layerPipeline, layerCore, layerWorkload, layerSnap}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin.
type span struct {
	name, layer string
	// cell names the sweep cell a span belongs to ("" above cell level).
	cell       string
	start, end int64
	parent     int
	// concurrent marks runner cells, which overlap on the worker pool and
	// get their own lanes in the Chrome trace.
	concurrent bool
	// sampled marks an aggregate of sampled calls (workload.Next,
	// core.OnCommit): its duration is an estimate laid out at the start
	// of its parent, not one interval of real time.
	sampled bool
}

// tracer records spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced reps pay one pointer test per
// call.
type tracer struct {
	origin time.Time
	// clockNs is the cost of one empty timed section, subtracted from
	// each sampled call.
	clockNs float64

	mu       sync.Mutex
	spans    []span
	heap     []metrics.Sample
	heapPeak uint64
}

func newTracer() *tracer {
	t := &tracer{
		origin: time.Now(),
		heap:   []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	const n = 1 << 14
	var d time.Duration
	for i := 0; i < n; i++ {
		c := time.Now()
		d += time.Since(c)
	}
	t.clockNs = float64(d) / n
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under parent, in the parent's cell, and returns its id.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	cell := ""
	if parent >= 0 {
		t.mu.Lock()
		cell = t.spans[parent].cell
		t.mu.Unlock()
	}
	return t.add(span{name: name, layer: layer, cell: cell, start: t.now(), end: -1, parent: parent})
}

// beginCell opens the span of a cell the benchmark runs on its own
// processors; the spans under it carry its name as their cell id.
func (t *tracer) beginCell(cell string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(span{name: cell, layer: layerPipeline, cell: cell, start: t.now(), end: -1, parent: parent})
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.sampleHeap()
}

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	if s.end >= 0 {
		t.sampleHeap()
	}
	return len(t.spans) - 1
}

// sampleHeap tracks the live heap's peak at span boundaries. t.mu is held.
func (t *tracer) sampleHeap() {
	metrics.Read(t.heap)
	if v := t.heap[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > t.heapPeak {
		t.heapPeak = v.Uint64()
	}
}

// aggregate lays a sampled-call estimate of total ns under parent, after
// the aggregates already placed there, clamped to the parent's end.
func (t *tracer) aggregate(parent int, name, layer string, ns float64) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	start := p.start
	for _, s := range t.spans {
		if s.parent == parent && s.sampled && s.end > start {
			start = s.end
		}
	}
	t.mu.Unlock()
	end := min(start+int64(ns), p.end)
	t.add(span{name: name, layer: layer, cell: p.cell, start: start, end: end, parent: parent, sampled: true})
}

// selfTimes charges every instant of the root span (span 0) to the deepest
// span open at that instant and sums the charges per layer. The layers
// therefore partition the root's wall time exactly, even where cells
// overlap on parallel workers: an instant two cells share counts once.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int64{}
	if len(t.spans) == 0 {
		return out
	}
	root := t.spans[0]
	depth := make([]int, len(t.spans))
	pts := make([]int64, 0, 2*len(t.spans))
	for i, s := range t.spans {
		for p := s.parent; p >= 0; p = t.spans[p].parent {
			depth[i]++
		}
		pts = append(pts, clamp(s.start, root.start, root.end), clamp(s.end, root.start, root.end))
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if a == b {
			continue
		}
		best := -1
		for i, s := range t.spans {
			if s.start <= a && s.end >= b && (best < 0 || depth[i] > depth[best]) {
				best = i
			}
		}
		if best >= 0 {
			out[t.spans[best].layer] += b - a
		}
	}
	return out
}

func clamp(v, lo, hi int64) int64 { return min(max(v, lo), hi) }

// durations returns the durations in ns of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			ds = append(ds, float64(s.end-s.start))
		}
	}
	return ds
}

// chromeEvent is one record of the Chrome trace event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto). The benchmark's own calls are thread 0; runner cells, which
// overlap, are spread over as many lanes as are busy at once.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	tid := make([]int, len(spans))
	var order []int
	for i, s := range spans {
		if s.concurrent {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	var laneEnd []int64
	for _, i := range order {
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > spans[i].start {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = spans[i].end
		tid[i] = 1 + lane
	}

	events := []chromeEvent{{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": "benchmark"}}}
	for lane := range laneEnd {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1 + lane,
			Args: map[string]any{"name": fmt.Sprintf("runner cells %d", lane+1)}})
	}
	for i, s := range spans {
		args := map[string]any{"layer": s.layer, "id": i, "parent": s.parent}
		if s.cell != "" {
			args["cell"] = s.cell
		}
		if s.sampled {
			args["sampled_estimate"] = true
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid[i], Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// progressSink turns the runner's JSONL progress stream into spans: a
// runner batch per batch_start/batch_done pair and a cell per run_done,
// ending when the event arrives and starting its run_ms earlier.
type progressSink struct {
	tr *tracer

	mu     sync.Mutex
	parent int // the driver call the next batch belongs to
	batch  int
	buf    []byte
	bad    int // lines that were not progress events
}

// setParent names the driver span the following batches run under.
func (p *progressSink) setParent(id int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parent = id
}

// Write implements io.Writer for telemetry.ProgressWriter, which writes one
// whole line per call and serializes its calls.
func (p *progressSink) Write(b []byte) (int, error) {
	now := p.tr.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	for {
		i := bytes.IndexByte(p.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		var ev telemetry.ProgressEvent
		if err := json.Unmarshal(p.buf[:i], &ev); err != nil {
			p.bad++
		}
		p.buf = p.buf[i+1:]
		switch ev.Event {
		case "batch_start":
			p.batch = p.tr.add(span{name: "runner.RunAll", layer: layerRunner, start: now, end: -1, parent: p.parent})
		case "run_done":
			p.tr.mu.Lock()
			batchStart := p.tr.spans[p.batch].start
			p.tr.mu.Unlock()
			p.tr.add(span{name: "cell", layer: layerPipeline, cell: ev.ID + "/" + ev.Bench + "/" + ev.Policy,
				start: max(now-ev.RunMs*int64(time.Millisecond), batchStart), end: now, parent: p.batch, concurrent: true})
		case "batch_done":
			p.tr.mu.Lock()
			p.tr.spans[p.batch].end = now
			p.tr.mu.Unlock()
		}
	}
}

// sampleMask selects the calls a sampled wrapper times: one in 64, the
// phase timer's default period.
const sampleMask = 63

// maxSampleNs drops a timed call that took longer than any real Next or
// OnCommit call (tens of ns): it caught a preemption or a collector pause,
// which the 64x scaling would otherwise blow up into seconds.
const maxSampleNs = 20_000

// sampler times one call in sampleMask+1.
type sampler struct {
	calls, timed uint64
	ns           int64
}

// add records one timed call of d ns.
func (s *sampler) add(d int64) {
	if d <= maxSampleNs {
		s.ns += d
		s.timed++
	}
}

// estimate returns the estimated total ns of all calls, net of the clock's
// own cost.
func (s *sampler) estimate(clockNs float64) float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.calls) * max(float64(s.ns)/float64(s.timed)-clockNs, 0)
}

// timedGen is a workload generator whose Next calls are sampled.
type timedGen struct {
	workload.Generator
	s sampler
}

func (g *timedGen) Next(in *isa.Instruction) {
	g.s.calls++
	if g.s.calls&sampleMask != 0 {
		g.Generator.Next(in)
		return
	}
	c := time.Now()
	g.Generator.Next(in)
	g.s.add(int64(time.Since(c)))
}

// timedCtrl is a controller whose OnCommit calls are sampled.
type timedCtrl struct {
	pipeline.Controller
	s sampler
}

func (c *timedCtrl) OnCommit(ev pipeline.CommitEvent) int {
	c.s.calls++
	if c.s.calls&sampleMask != 0 {
		return c.Controller.OnCommit(ev)
	}
	t := time.Now()
	n := c.Controller.OnCommit(ev)
	c.s.add(int64(time.Since(t)))
	return n
}

// goStats are the Go runtime counters the traced rep differences.
type goStats struct{ allocs, gcCPU, totalCPU float64 }

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(m metrics.Sample) float64 {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			return float64(m.Value.Uint64())
		case metrics.KindFloat64:
			return m.Value.Float64()
		}
		return 0
	}
	return goStats{allocs: val(s[0]), gcCPU: val(s[1]), totalCPU: val(s[2])}
}

// prober is a workload instance with layers that its rep exercises inside
// runner cells, where the benchmark cannot bracket them; it measures them
// standalone after the traced rep.
type prober interface {
	probe(e *env) error
}

// tracedRun is what the traced rep measured.
type tracedRun struct {
	layers   map[string]float64
	self     map[string]float64 // seconds per layer
	overhead float64
}

// tracedRep runs one more rep with every hook attached: spans around the
// benchmark's calls into each layer, the runner's sweep meter with an
// in-memory progress stream, the pipeline's phase timer, and sampled
// generator and controller wrappers where the benchmark builds processors
// itself. exact holds the reference rep's exact counts; untraced is the
// median untraced rep wall time.
func tracedRep(cfg config, e *env, chk *checks, inst instance, refDigest uint64, exact map[string]float64, untraced float64) (*tracedRun, error) {
	runtime.GC()
	tr := newTracer()
	rc := newRep(e, chk, false)
	rc.tr = tr
	rc.sink = &progressSink{tr: tr, parent: -1, batch: -1}
	pw := telemetry.NewProgressWriter(rc.sink)
	rc.meter = telemetry.NewSweepMeter(nil, pw)
	rc.phases = telemetry.NewPhaseTimer(0)

	before := readGoStats()
	rc.root = tr.begin("rep", layerBench, -1)
	err := inst.rep(rc)
	tr.end(rc.root)
	after := readGoStats()
	if cerr := pw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("traced rep: %w", err)
	}
	rc.finish()
	chk.expect(rc.digest() == refDigest, "traced rep: digest %016x differs from the reference %016x", rc.digest(), refDigest)
	chk.expect(rc.sink.bad == 0, "traced rep: %d progress lines did not parse", rc.sink.bad)
	if p, ok := inst.(prober); ok {
		if err := p.probe(e); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}

	repNs := float64(tr.spans[0].end - tr.spans[0].start)
	out := &tracedRun{layers: map[string]float64{}, self: map[string]float64{}, overhead: repNs/1e9/untraced - 1}
	l := out.layers
	for layer, ns := range tr.selfTimes() {
		out.self[layer] = float64(ns) / 1e9
	}
	for _, layer := range traceLayers {
		l["self_share."+layer] = out.self[layer] * 1e9 / repNs
	}
	if s := out.self[layerExperiments]; s > 0 {
		l["experiments.self_s"] = s
	}

	pr := rc.phases.Report()
	for _, ps := range pr.Phases {
		l["pipeline.share."+ps.Phase] = ps.Fraction
	}
	simCycles, simInstrs := exact["pipeline.sim_cycles"], exact["pipeline.sim_instructions"]
	l["pipeline.stepped_cycle_ratio"] = float64(pr.SampledCycles*pr.Period) / simCycles
	execNs := float64(rc.meter.SpanNanos(telemetry.SpanExecute))
	cellNs := execNs - float64(rc.meter.SpanNanos(telemetry.SpanCheckpoint)) + float64(rc.runNs)
	l["pipeline.ns_per_instr"] = cellNs / simInstrs

	var requests, hits, runs int
	for _, s := range rc.runnerStats() {
		requests += s.Runs + s.Failures + s.CacheHits + s.Deduped
		hits += s.CacheHits
		runs += s.Runs
	}
	l["runner.utilization"], l["runner.cache_hit_ratio"] = 0, 0
	if requests > 0 {
		l["runner.utilization"] = execNs / (float64(e.workers) * repNs)
		l["runner.cache_hit_ratio"] = float64(hits) / float64(requests)
		l["runner.cells"] = float64(requests)
		l["runner.executed"] = float64(runs)
		if runs > 0 {
			// The meter charges each cell its wait since the batch began.
			l["runner.queue_wait_ms"] = float64(rc.meter.SpanNanos(telemetry.SpanQueueWait)) / 1e6 / float64(runs)
		}
		if ck := rc.meter.SpanNanos(telemetry.SpanCheckpoint); ck > 0 {
			l["runner.checkpoint_s"] = float64(ck) / 1e9
		}
		if cells := tr.durations("cell"); len(cells) > 0 {
			l["runner.cell_ms_p50"] = quantile(cells, 0.5) / 1e6
			l["runner.cell_ms_p90"] = quantile(cells, 0.9) / 1e6
		}
	}
	for name, m := range map[string]struct {
		metric string
		scale  float64
	}{
		"pipeline.New":             {"pipeline.new_us", 1e3},
		"Processor.SaveCheckpoint": {"snap.save_ms", 1e6},
		"Processor.LoadCheckpoint": {"snap.load_ms", 1e6},
		"runner.LoadPersisted":     {"runner.load_persisted_ms", 1e6},
	} {
		if ds := tr.durations(name); len(ds) > 0 {
			total := 0.0
			for _, d := range ds {
				total += d
			}
			l[m.metric] = total / float64(len(ds)) / m.scale
		}
	}

	l["go.allocs_per_minstr"] = (after.allocs - before.allocs) / (simInstrs / 1e6)
	l["go.gc_cpu_fraction"] = 0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		l["go.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
	l["go.heap_peak_mb"] = float64(tr.heapPeak) / 1e6

	if cfg.traceOut != "" {
		if err := tr.writeChrome(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
	}
	return out, nil
}
