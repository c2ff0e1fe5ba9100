package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"clustersim/internal/core"
	"clustersim/internal/experiments"
	"clustersim/internal/isa"
	"clustersim/internal/pipeline"
	"clustersim/internal/spec"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// size fixes how much work one rep of each workload does.
type size struct {
	// benches restricts every workload to these benchmarks (nil: the nine
	// built-ins, and for spec-replay every single-program spec).
	benches     []string
	sweepScale  float64 // paper-sweep Options.Scale
	hotInstrs   uint64  // hot-loop instructions per cell
	replayScale float64 // spec-replay Options.Scale
	ckptScale   float64 // checkpoint-resume Options.Scale
	ckptEvery   uint64  // checkpoint-resume Runner.CheckpointEvery
	// prefix is how many instructions of each built-in stream set-up
	// fingerprints as the run's input identity.
	prefix uint64
}

// fullSize is the benchmark proper: each rep takes a few seconds on a
// 2-core host. ckptEvery is the CLI's 500K-instruction default scaled like
// the windows (500K x 0.05).
var fullSize = size{
	sweepScale:  0.03,
	hotInstrs:   150_000,
	replayScale: 0.05,
	ckptScale:   0.05,
	ckptEvery:   25_000,
	prefix:      1 << 16,
}

// workloadDef is one named set of inputs and the rep that runs them.
type workloadDef struct {
	name string
	// setup builds the workload's inputs in dir and returns the instance
	// whose reps run them.
	setup func(e *env, dir string) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// rep runs one rep of fixed work, recording its outcome in rc.
	rep(rc *repCtx) error
}

var workloads = []*workloadDef{
	{name: "paper-sweep", setup: setupPaperSweep},
	{name: "hot-loop", setup: setupHotLoop},
	{name: "spec-replay", setup: setupSpecReplay},
	{name: "checkpoint-resume", setup: setupCheckpointResume},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func (e *env) benchmarks() []string {
	if len(e.size.benches) > 0 {
		return e.size.benches
	}
	return workload.Benchmarks()
}

// builtinInputs fingerprints a prefix of every built-in benchmark's stream
// for the run's seed: the input identity -compare matches across sets. The
// drain time per instruction is workload generation measured standalone.
func builtinInputs(e *env) error {
	// Chunks keep set-up's memory small, so it never sets the run's peak.
	const chunk = 1024
	h := fnv.New64a()
	var drainNs int64
	var drained uint64
	for _, b := range e.benchmarks() {
		gen, err := workload.New(b, e.seed)
		if err != nil {
			return err
		}
		meta := trace.Meta{Name: b, SourceKind: trace.SourceBench, SourceID: b, Seed: e.seed}
		fmt.Fprintf(h, "%s|", b)
		for n := uint64(0); n < e.size.prefix; n += chunk {
			start := time.Now()
			t := trace.Record(gen, chunk, meta)
			drainNs += int64(time.Since(start))
			fmt.Fprintf(h, "%016x|", t.Fingerprint())
		}
		drained += e.size.prefix
	}
	e.inputs = h.Sum64()
	e.layers["workload.drain_ns_per_instr"] = float64(drainNs) / float64(drained)
	return nil
}

// windowSum is the summed cell window of every benchmark o sweeps.
func windowSum(o experiments.Options, benches []string) uint64 {
	var sum uint64
	for _, b := range benches {
		sum += o.Window(b)
	}
	return sum
}

// requests counts the requests a runner resolved, cache hits included.
func requests(rc *repCtx) int {
	n := 0
	for _, s := range rc.runnerStats() {
		n += s.Runs + s.Failures + s.CacheHits + s.Deduped
	}
	return n
}

// ---------------------------------------------------------- paper-sweep --

// paperSweep regenerates Figures 3 and 5-8 through one runner: both cache
// models, both topologies, the worker pool, batch drain between drivers and
// the run cache (the Fig5/Fig6 static and explore cells repeat).
type paperSweep struct{ dir string }

// sweepCellsPerBench is the cells one benchmark contributes to the sweep:
// Fig3 4, Fig5 6, Fig6 5, Fig7 5 and Fig8 3.
const sweepCellsPerBench = 23

func setupPaperSweep(e *env, dir string) (instance, error) {
	if err := builtinInputs(e); err != nil {
		return nil, err
	}
	return &paperSweep{dir: dir}, nil
}

func (w *paperSweep) rep(rc *repCtx) error {
	r := rc.newRunner()
	harvest := filepath.Join(w.dir, "harvest")
	if rc.ref {
		// Persisting Results is the only public way to see a driver's
		// cells; only the reference rep pays for it.
		r.CheckpointDir = harvest
	}
	o := rc.options(rc.env.size.sweepScale, r)
	rc.drive(o,
		driver{"experiments.Fig3", experiments.Fig3},
		driver{"experiments.Fig5", experiments.Fig5},
		driver{"experiments.Fig6", experiments.Fig6},
		driver{"experiments.Fig7", experiments.Fig7},
		driver{"experiments.Fig8", experiments.Fig8},
	)
	benches := rc.env.benchmarks()
	rc.instrs += sweepCellsPerBench * windowSum(o, benches)
	want := sweepCellsPerBench * len(benches)
	rc.chk.expect(requests(rc) == want, "paper-sweep resolved %d cells, want %d", requests(rc), want)
	if rc.ref {
		return rc.harvest(harvest, o.Window)
	}
	return nil
}

// ------------------------------------------------------------- hot-loop --

// hotLoop builds and runs processors serially with no runner, isolating
// the cycle loop (stages, steering, memory, interconnect, controllers and
// live generation) from pool scheduling.
type hotLoop struct{}

// hotCell is one machine and controller every benchmark runs on.
type hotCell struct {
	name  string
	cache pipeline.CacheModel
	topo  pipeline.Topology
	ctrl  func() pipeline.Controller
}

var hotCells = []hotCell{
	{"explore/central/ring", pipeline.CentralizedCache, pipeline.RingTopology, newExplore},
	{"dilp-1K/decentralized/ring", pipeline.DecentralizedCache, pipeline.RingTopology, func() pipeline.Controller {
		return core.NewDistantILP(core.DistantILPConfig{Interval: 1000})
	}},
	{"explore/central/grid", pipeline.CentralizedCache, pipeline.GridTopology, newExplore},
}

func newExplore() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }

func setupHotLoop(e *env, dir string) (instance, error) {
	if err := builtinInputs(e); err != nil {
		return nil, err
	}
	return hotLoop{}, nil
}

func (hotLoop) rep(rc *repCtx) error {
	n := rc.env.size.hotInstrs
	var gens []*timedGen
	var ctrls []*timedCtrl
	for _, b := range rc.env.benchmarks() {
		for _, c := range hotCells {
			name := b + "/" + c.name
			cell := rc.tr.beginCell(name, rc.root)
			gen, err := workload.New(b, rc.env.seed)
			if err != nil {
				return err
			}
			var g workload.Generator = gen
			ctrl := c.ctrl()
			if rc.tr != nil {
				tg, tc := &timedGen{Generator: gen}, &timedCtrl{Controller: ctrl}
				gens, ctrls = append(gens, tg), append(ctrls, tc)
				g, ctrl = tg, tc
			}
			cfg := pipeline.DefaultConfig()
			cfg.Cache, cfg.Topology, cfg.Phases = c.cache, c.topo, rc.phases
			res, run, err := rc.build(cell, cfg, g, ctrl, n)
			if err != nil {
				rc.tr.end(cell)
				rc.cellError(name, err)
				continue
			}
			if rc.tr != nil {
				rc.tr.aggregate(run, "workload.Next", layerWorkload, gens[len(gens)-1].s.estimate(rc.tr.clockNs))
				rc.tr.aggregate(run, "core.OnCommit", layerCore, ctrls[len(ctrls)-1].s.estimate(rc.tr.clockNs))
			}
			rc.tr.end(cell)
			rc.cellResult(res, n)
		}
	}
	if rc.ref {
		rc.counted = rc.results
	}
	if rc.tr != nil {
		var nextCalls, commitCalls uint64
		var nextNs, commitNs float64
		for i := range gens {
			nextNs += gens[i].s.estimate(rc.tr.clockNs)
			commitNs += ctrls[i].s.estimate(rc.tr.clockNs)
			nextCalls += gens[i].s.calls
			commitCalls += ctrls[i].s.calls
		}
		l := rc.env.layers
		l["workload.next_ns"] = nextNs / float64(nextCalls)
		l["core.oncommit_ns"] = commitNs / float64(commitCalls)
		l["workload.share"] = nextNs / float64(rc.runNs)
		l["core.share"] = commitNs / float64(rc.runNs)
	}
	return nil
}

// build makes a processor under a pipeline.New span and runs n
// instructions under a Processor.Run span, whose id it also returns.
func (rc *repCtx) build(cell int, cfg pipeline.Config, gen workload.Generator, ctrl pipeline.Controller, n uint64) (pipeline.Result, int, error) {
	sp := rc.tr.begin("pipeline.New", layerPipeline, cell)
	p, err := pipeline.New(cfg, gen, ctrl)
	rc.tr.end(sp)
	if err != nil {
		return pipeline.Result{}, -1, err
	}
	return rc.run(cell, p, n)
}

// run simulates n more instructions on p under a Processor.Run span.
func (rc *repCtx) run(cell int, p *pipeline.Processor, n uint64) (pipeline.Result, int, error) {
	sp := rc.tr.begin("Processor.Run", layerPipeline, cell)
	start := time.Now()
	res, err := p.Run(n)
	rc.runNs += int64(time.Since(start))
	rc.tr.end(sp)
	return res, sp, err
}

// ---------------------------------------------------------- spec-replay --

// specReplay records every single-program spec in specs/ at set-up and
// replays the traces through Table3 and Fig3, so the trace codec and spec
// compilation carry work here and nowhere else; live generation and
// controllers do none.
type specReplay struct {
	dir    string
	traces string
	specs  map[string]*spec.Spec
	names  []string
}

// replayCellsPerBench is the cells one spec contributes: Table3 1 and
// Fig3 4.
const replayCellsPerBench = 5

func setupSpecReplay(e *env, dir string) (instance, error) {
	files, err := filepath.Glob(filepath.Join(e.root, "specs", "*.json"))
	if err != nil {
		return nil, err
	}
	only := map[string]bool{}
	for _, b := range e.size.benches {
		only[b] = true
	}
	w := &specReplay{dir: dir, traces: filepath.Join(dir, "traces"), specs: map[string]*spec.Spec{}}
	for _, f := range files {
		s, err := spec.LoadFile(f)
		if err != nil {
			return nil, err
		}
		// A mix describes several threads, not one program a sweep can run.
		if len(s.Mix) > 0 || (len(only) > 0 && !only[s.Name]) {
			continue
		}
		w.specs[s.Name] = s
		w.names = append(w.names, s.Name)
	}
	if len(w.names) == 0 {
		return nil, fmt.Errorf("no single-program specs under %s", filepath.Join(e.root, "specs"))
	}
	sort.Strings(w.names)

	start := time.Now()
	for _, name := range w.names {
		if _, err := spec.Compile(w.specs[name], e.seed); err != nil {
			return nil, err
		}
	}
	e.layers["spec.compile_ms"] = float64(time.Since(start)) / 1e6

	o := experiments.Options{Seed: e.seed, Scale: e.size.replayScale, Specs: w.specs, Benchmarks: w.names}
	start = time.Now()
	if _, err := experiments.RecordTraces(o, w.traces, 0); err != nil {
		return nil, err
	}
	e.layers["trace.record_s"] = time.Since(start).Seconds()

	h := fnv.New64a()
	var total int64
	for _, name := range w.names {
		path := experiments.TraceFileName(w.traces, name, e.seed)
		hdr, err := trace.PeekHeader(path)
		if err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		total += st.Size()
		fmt.Fprintf(h, "%s=%016x|", name, hdr.Fingerprint)
	}
	e.inputs = h.Sum64()
	e.layers["trace.bytes"] = float64(total)
	return w, nil
}

// rep replays the recorded traces. The reference rep instead runs live from
// the specs, then replays once more with its Results persisted, and checks
// that every replayed Result equals a live one field by field: the timed
// reps' digests then show they reproduce the live tables.
func (w *specReplay) rep(rc *repCtx) error {
	if !rc.ref {
		w.pass(rc, false, "")
		return nil
	}
	live := filepath.Join(w.dir, "harvest-live")
	o := w.pass(rc, true, live)
	if err := rc.harvest(live, o.Window); err != nil {
		return err
	}
	replayed := filepath.Join(w.dir, "harvest-replay")
	vc := newRep(rc.env, rc.chk, false)
	w.pass(vc, false, replayed)
	vc.finish()
	rs, err := readPersisted(replayed)
	if err != nil {
		return err
	}
	rc.chk.expect(len(rs) == len(rc.counted), "replay persisted %d Results, the live reference %d", len(rs), len(rc.counted))
	matched := make([]bool, len(rc.counted))
	for _, r := range rs {
		found := false
		for i, l := range rc.counted {
			if !matched[i] && l == r {
				matched[i], found = true, true
				break
			}
		}
		rc.chk.expect(found, "%s/%s: replayed Result equals no live Result", r.Benchmark, r.Policy)
	}
	return nil
}

// pass runs Table3 and Fig3 once, live from the specs or replayed from the
// recorded traces, persisting the Results under harvest unless it is "".
func (w *specReplay) pass(rc *repCtx, live bool, harvest string) experiments.Options {
	r := rc.newRunner()
	r.CheckpointDir = harvest
	o := rc.options(rc.env.size.replayScale, r)
	o.Specs, o.Benchmarks = w.specs, w.names
	if !live {
		o.ReplayTraceDir = w.traces
		o.TraceCache = experiments.NewTraceCache()
	}
	rc.drive(o,
		driver{"experiments.Table3", experiments.Table3},
		driver{"experiments.Fig3", experiments.Fig3},
	)
	rc.instrs += replayCellsPerBench * windowSum(o, w.names)
	want := replayCellsPerBench * len(w.names)
	rc.chk.expect(requests(rc) == want, "spec-replay resolved %d cells, want %d", requests(rc), want)
	return o
}

// probe times the trace codec standalone on the recorded traces: read,
// write and replay, which the rep does inside runner cells.
func (w *specReplay) probe(e *env) error {
	var readNs, writeNs, replayNs int64
	var instrs int
	scratch := filepath.Join(w.dir, "probe.trace")
	defer os.Remove(scratch)
	for _, name := range w.names {
		start := time.Now()
		t, err := trace.ReadFile(experiments.TraceFileName(w.traces, name, e.seed))
		readNs += int64(time.Since(start))
		if err != nil {
			return err
		}
		start = time.Now()
		rp := t.Replayer()
		var in isa.Instruction
		for rp.Remaining() > 0 {
			rp.Next(&in)
		}
		replayNs += int64(time.Since(start))
		instrs += len(t.Instrs)
		start = time.Now()
		err = trace.WriteFile(scratch, t)
		writeNs += int64(time.Since(start))
		if err != nil {
			return err
		}
	}
	e.layers["trace.read_s"] = float64(readNs) / 1e9
	e.layers["trace.write_s"] = float64(writeNs) / 1e9
	e.layers["trace.replay_ns_per_instr"] = float64(replayNs) / float64(instrs)
	return nil
}

// ---------------------------------------------------- checkpoint-resume --

// checkpointResume exercises crash safety: (a) Fig5 through a checkpointing
// runner, (b) a new runner resuming from the persisted Results, which must
// serve every cell from them, and (c) each benchmark's explore cell saved
// to memory at half its window, restored into a fresh processor and run
// to the end, which must equal its uninterrupted cell from (a).
type checkpointResume struct{ dir string }

// fig5CellsPerBench is the cells one benchmark contributes to Fig5, once in
// phase (a) and again, served from persisted Results, in phase (b).
const fig5CellsPerBench = 6

func setupCheckpointResume(e *env, dir string) (instance, error) {
	if err := builtinInputs(e); err != nil {
		return nil, err
	}
	return &checkpointResume{dir: dir}, nil
}

func (w *checkpointResume) rep(rc *repCtx) error {
	sz := rc.env.size
	ckdir, err := os.MkdirTemp(w.dir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckdir)
	benches := rc.env.benchmarks()

	ra := rc.newRunner()
	ra.CheckpointDir, ra.CheckpointEvery = ckdir, sz.ckptEvery
	oa := rc.options(sz.ckptScale, ra)
	rc.drive(oa, driver{"experiments.Fig5", experiments.Fig5})
	executed := ra.Stats().Runs

	rb := rc.newRunner()
	rb.CheckpointDir = ckdir
	sp := rc.tr.begin("runner.LoadPersisted", layerRunner, rc.root)
	loaded, err := rb.LoadPersisted()
	rc.tr.end(sp)
	if err != nil {
		return err
	}
	start := time.Now()
	rc.drive(rc.options(sz.ckptScale, rb), driver{"experiments.Fig5", experiments.Fig5})
	hitNs := time.Since(start)
	sb := rb.Stats()
	rc.chk.expect(loaded == executed, "phase b loaded %d persisted Results, phase a executed %d", loaded, executed)
	rc.chk.expect(sb.Runs == 0 && sb.CacheHits == fig5CellsPerBench*len(benches),
		"phase b ran %d cells and served %d from persisted Results, want 0 and %d", sb.Runs, sb.CacheHits, fig5CellsPerBench*len(benches))
	if n := len(rc.tables); n == 2 {
		rc.chk.expect(digestOf(rc.tables[:1], nil) == digestOf(rc.tables[1:], nil), "phase b's Fig5 differs from phase a's")
	}
	if rc.tr != nil {
		rc.env.layers["runner.hit_us_per_cell"] = float64(hitNs.Microseconds()) / float64(max(sb.CacheHits, 1))
	}

	var snapBytes int
	for _, b := range benches {
		name := b + "/explore/resumed"
		cell := rc.tr.beginCell(name, rc.root)
		res, n, err := rc.resume(cell, b, oa.Window(b))
		rc.tr.end(cell)
		if err != nil {
			rc.cellError(name, err)
			continue
		}
		snapBytes += n
		rc.cellResult(res, oa.Window(b))
	}
	rc.env.layers["snap.bytes"] = float64(snapBytes)
	rc.instrs += 2 * fig5CellsPerBench * windowSum(oa, benches)

	if rc.ref {
		if err := rc.harvest(ckdir, oa.Window); err != nil {
			return err
		}
		explore := newExplore().Name()
		for _, c := range rc.results {
			found := false
			for _, a := range rc.counted {
				if a.Benchmark == c.Benchmark && a.Policy == explore {
					found = true
					rc.chk.expect(a == c, "%s: resumed Result differs from the uninterrupted phase a cell", c.Benchmark)
				}
			}
			rc.chk.expect(found, "%s: no phase a explore cell to compare the resumed run with", c.Benchmark)
		}
		rc.counted = append(rc.counted, rc.results...)
	}
	return nil
}

// resume runs one explore cell to half its window, saves it to memory,
// restores the snapshot into a fresh processor and runs it to the end. It
// returns the final Result and the snapshot's size.
func (rc *repCtx) resume(cell int, bench string, window uint64) (pipeline.Result, int, error) {
	build := func() (*pipeline.Processor, error) {
		gen, err := workload.New(bench, rc.env.seed)
		if err != nil {
			return nil, err
		}
		cfg := pipeline.DefaultConfig()
		cfg.Phases = rc.phases
		sp := rc.tr.begin("pipeline.New", layerPipeline, cell)
		defer rc.tr.end(sp)
		return pipeline.New(cfg, gen, newExplore())
	}
	p, err := build()
	if err != nil {
		return pipeline.Result{}, 0, err
	}
	if _, _, err := rc.run(cell, p, window/2); err != nil {
		return pipeline.Result{}, 0, err
	}
	var buf bytes.Buffer
	sp := rc.tr.begin("Processor.SaveCheckpoint", layerSnap, cell)
	err = p.SaveCheckpoint(&buf)
	rc.tr.end(sp)
	if err != nil {
		return pipeline.Result{}, 0, err
	}
	n := buf.Len()
	q, err := build()
	if err != nil {
		return pipeline.Result{}, 0, err
	}
	sp = rc.tr.begin("Processor.LoadCheckpoint", layerSnap, cell)
	err = q.LoadCheckpoint(&buf)
	rc.tr.end(sp)
	if err != nil {
		return pipeline.Result{}, 0, err
	}
	res, _, err := rc.run(cell, q, window-q.Committed())
	return res, n, err
}
