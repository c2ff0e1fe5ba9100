package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"

	"clustersim/internal/experiments"
	"clustersim/internal/interconnect"
	"clustersim/internal/mem"
	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/telemetry"
)

// env is what a workload's set-up and reps share within one run.
type env struct {
	root    string
	seed    uint64
	size    size
	workers int
	// inputs fingerprints the generated inputs, so two runs of one seed
	// can be shown to have simulated the same instruction streams.
	inputs uint64
	// layers collects per-layer values measured outside the traced rep's
	// span tree (set-up costs and standalone probes).
	layers map[string]float64
}

// repCtx carries one rep's hooks in and its outcome out. Outside the traced
// rep tr, sink, meter and phases are nil, and every hook costs nothing.
type repCtx struct {
	env *env
	chk *checks
	// ref marks the reference rep, which also harvests the Results of
	// runner-executed cells for the exact counts.
	ref bool

	tr     *tracer
	root   int // the rep's span
	sink   *progressSink
	meter  *telemetry.SweepMeter
	phases *telemetry.PhaseTimer

	tables []*experiments.Table
	// results are the Results the rep's own processors returned; they
	// feed the digest in every rep.
	results []pipeline.Result
	// counted are the Results of every cell the rep simulates (cache-served
	// cells excluded), set by the reference rep for the exact counts.
	counted []pipeline.Result
	runners []*runner.Runner
	// cells and failedCells count attempted and failed cells, cache-served
	// ones included; instrs is the simulated instructions the rep delivers.
	cells, failedCells int
	instrs             uint64
	// runNs sums the Processor.Run calls the rep made itself.
	runNs int64
}

func newRep(e *env, chk *checks, ref bool) *repCtx {
	return &repCtx{env: e, chk: chk, ref: ref, root: -1}
}

// newRunner returns a fresh runner (empty cache) of the run's pool width,
// instrumented when the rep is traced.
func (rc *repCtx) newRunner() *runner.Runner {
	r := runner.New(rc.env.workers)
	r.Meter = rc.meter
	rc.runners = append(rc.runners, r)
	return r
}

// options returns the experiment options every workload starts from.
func (rc *repCtx) options(scale float64, r *runner.Runner) experiments.Options {
	return experiments.Options{
		Seed:       rc.env.seed,
		Scale:      scale,
		Benchmarks: rc.env.size.benches,
		Runner:     r,
		Phases:     rc.phases,
	}
}

// driver is one experiments entry point a workload calls.
type driver struct {
	name string
	fn   func(experiments.Options) (*experiments.Table, error)
}

// drive calls each driver in turn under its own span and keeps its table.
// Failed cells are counted from the runners when the rep finishes; an error
// that is not a partial sweep means the driver produced nothing at all.
func (rc *repCtx) drive(o experiments.Options, ds ...driver) {
	for _, d := range ds {
		id := rc.tr.begin(d.name, layerExperiments, rc.root)
		rc.sink.setParent(id)
		t, err := d.fn(o)
		rc.tr.end(id)
		var se *runner.SweepError
		switch {
		case err == nil:
		case errors.As(err, &se):
			rc.chk.note("%s: %v", d.name, err)
		default:
			rc.chk.expect(false, "%s: %v", d.name, err)
		}
		if t != nil {
			rc.tables = append(rc.tables, t)
		}
	}
}

// cellResult accounts for one cell the rep ran on its own processor.
func (rc *repCtx) cellResult(res pipeline.Result, window uint64) {
	rc.cells++
	rc.instrs += window
	rc.results = append(rc.results, res)
	rc.chk.result(res, window)
}

// cellError accounts for one cell of the rep's own that failed.
func (rc *repCtx) cellError(cell string, err error) {
	rc.cells++
	rc.failedCells++
	rc.chk.note("%s: %v", cell, err)
}

// harvest reads the Results a runner persisted under dir (its
// CheckpointDir), checks each against its cell window and adds them to the
// counted set.
func (rc *repCtx) harvest(dir string, window func(bench string) uint64) error {
	span := rc.tr.begin("harvest", layerBench, rc.root)
	defer rc.tr.end(span)
	rs, err := readPersisted(dir)
	if err != nil {
		return err
	}
	for _, r := range rs {
		rc.chk.result(r, window(r.Benchmark))
	}
	rc.counted = append(rc.counted, rs...)
	return nil
}

// finish folds the rep's runner counts into its cell totals and runs the
// checks every rep gets.
func (rc *repCtx) finish() {
	for _, s := range rc.runnerStats() {
		rc.cells += s.Runs + s.Failures + s.CacheHits + s.Deduped
		rc.failedCells += s.Failures
	}
	rc.chk.cells(rc.cells, rc.failedCells)
	for _, t := range rc.tables {
		for _, row := range t.Rows {
			for i, c := range row.Cells {
				rc.chk.expect(c.Text != "-", "table %s row %s column %d is \"-\"", t.ID, row.Name, i)
			}
		}
	}
}

func (rc *repCtx) runnerStats() []runner.Stats {
	out := make([]runner.Stats, len(rc.runners))
	for i, r := range rc.runners {
		out[i] = r.Stats()
	}
	return out
}

// digest fingerprints everything the rep produced: every table cell (text
// and value), every note, and every Result the rep's own processors
// returned.
func (rc *repCtx) digest() uint64 { return digestOf(rc.tables, rc.results) }

func digestOf(tables []*experiments.Table, results []pipeline.Result) uint64 {
	h := fnv.New64a()
	for _, t := range tables {
		fmt.Fprintf(h, "%s|%q|", t.ID, t.Columns)
		for _, row := range t.Rows {
			fmt.Fprintf(h, "%s|", row.Name)
			for _, c := range row.Cells {
				// Twelve significant digits, not the exact bits: the
				// drivers' geomean rows sum logarithms in map order, so
				// their last bit varies from run to run.
				fmt.Fprintf(h, "%s|%.12g|", c.Text, c.Value)
			}
		}
		for _, n := range t.Notes {
			fmt.Fprintf(h, "%s|", n)
		}
	}
	for _, r := range results {
		fmt.Fprintf(h, "%+v|", r)
	}
	return h.Sum64()
}

// readPersisted decodes the Results a runner persisted under dir, in file
// name order so every later sum is deterministic.
func readPersisted(dir string) ([]pipeline.Result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "results", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	rs := make([]pipeline.Result, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r pipeline.Result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("persisted result %s: %w", f, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// checks counts the correctness checks a run makes and keeps the first
// failure messages.
type checks struct {
	attempted, failed int
	failures          []string
}

const maxFailureMessages = 20

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.note(format, args...)
	}
}

// note keeps a failure message without counting a check; failed cells are
// counted by cells.
func (c *checks) note(format string, args ...any) {
	if len(c.failures) < maxFailureMessages {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) cells(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// commitWidth bounds how far past its window a run may commit: Run stops at
// the end of the cycle that reaches the target, and one cycle retires at
// most CommitWidth instructions.
var commitWidth = uint64(pipeline.DefaultConfig().CommitWidth)

// netDiameter is the larger diameter of the two 16-cluster networks, the
// bound on the hops of one transfer in any cell.
var netDiameter = func() int {
	n := pipeline.DefaultConfig().Clusters
	ring, err := interconnect.NewRing(n, 1)
	if err != nil {
		panic(err)
	}
	grid, err := interconnect.NewGrid(n, 1)
	if err != nil {
		panic(err)
	}
	return max(ring.Diameter(), grid.Diameter())
}()

// result checks one cell's Result: it committed its window (up to one
// cycle's retirement past it) and its memory and interconnect statistics
// satisfy their conservation identities.
func (c *checks) result(r pipeline.Result, window uint64) {
	c.expect(r.Instructions >= window && r.Instructions < window+commitWidth,
		"%s/%s committed %d instructions, window %d", r.Benchmark, r.Policy, r.Instructions, window)
	for _, err := range []error{r.Mem.Conserved(mem.Stats{}), r.Net.Conserved(interconnect.Stats{}, netDiameter)} {
		c.expect(err == nil, "%s/%s: %v", r.Benchmark, r.Policy, err)
	}
}

// exactCounts aggregates simulated statistics over a set of Results. They
// are deterministic for a seed: a change that only speeds the simulator up
// must leave every one identical.
func exactCounts(rs []pipeline.Result) map[string]float64 {
	var cycles, instrs, active, distant, reconfigs, bankMiss uint64
	var l1Miss, l1Acc, l2Miss, flushWB, xfers, latSum, lookups, mispred uint64
	logIPC := 0.0
	for _, r := range rs {
		cycles += r.Cycles
		instrs += r.Instructions
		active += r.ActiveSum
		distant += r.DistantCommitted
		reconfigs += r.Reconfigs
		bankMiss += r.BankMispredicts
		l1Miss += r.Mem.L1Misses
		l1Acc += r.Mem.L1Hits + r.Mem.L1Misses
		l2Miss += r.Mem.L2Misses
		flushWB += r.Mem.FlushWritebacks
		xfers += r.Net.Transfers
		latSum += r.Net.LatencySum
		lookups += r.Branch.Lookups
		mispred += r.Branch.Mispredicts
		logIPC += math.Log(r.IPC())
	}
	ratio := func(a, b uint64, k float64) float64 {
		if b == 0 {
			return 0
		}
		return k * float64(a) / float64(b)
	}
	geomean := 0.0
	if len(rs) > 0 {
		geomean = math.Exp(logIPC / float64(len(rs)))
	}
	return map[string]float64{
		"pipeline.sim_cycles":                  float64(cycles),
		"pipeline.sim_instructions":            float64(instrs),
		"pipeline.ipc_geomean":                 geomean,
		"pipeline.avg_active_clusters":         ratio(active, cycles, 1),
		"pipeline.distant_fraction":            ratio(distant, instrs, 1),
		"pipeline.reconfigs_per_minstr":        ratio(reconfigs, instrs, 1e6),
		"pipeline.bank_mispredicts_per_kinstr": ratio(bankMiss, instrs, 1e3),
		"mem.l1_miss_rate":                     ratio(l1Miss, l1Acc, 1),
		"mem.l2_misses_per_kinstr":             ratio(l2Miss, instrs, 1e3),
		"mem.flush_writebacks":                 float64(flushWB),
		"interconnect.transfers_per_kinstr":    ratio(xfers, instrs, 1e3),
		"interconnect.avg_latency_cycles":      ratio(latSum, xfers, 1),
		"bpred.mispredict_rate":                ratio(mispred, lookups, 1),
	}
}
