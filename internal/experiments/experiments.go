// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each experiment returns a Table whose rows/series
// match what the paper reports; EXPERIMENTS.md records the paper-vs-
// measured comparison. Absolute numbers are not expected to match (the
// substrate is a from-scratch simulator with synthetic workloads); the
// shape — who wins, by roughly what factor, where crossovers fall — is the
// reproduction target.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"clustersim/internal/check"
	"clustersim/internal/mem"
	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
	"clustersim/internal/policy"
	"clustersim/internal/runner"
	"clustersim/internal/spec"
	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// Options control experiment scale.
type Options struct {
	// Seed seeds every workload (results are deterministic per seed).
	Seed uint64
	// Scale multiplies the per-benchmark simulation windows; 1.0 is the
	// calibrated default, smaller values trade fidelity for speed (the
	// Go benchmarks use ~0.1).
	Scale float64
	// Benchmarks restricts the benchmark set (nil = all nine).
	Benchmarks []string
	// ObsDir, when set, attaches an observability registry with
	// cycle-sampled probes to every simulated run and writes per-run
	// time-series CSVs plus metrics snapshots under this directory
	// (e.g. results/obs). Empty disables instrumentation.
	ObsDir string
	// ObsSamplePeriod is the probe sampling period in cycles when ObsDir
	// is set (0 = every 10K cycles).
	ObsSamplePeriod uint64
	// Check attaches a fresh fail-fast cycle-level invariant checker
	// (internal/check) to every simulated run; the first violation aborts
	// the sweep with an error naming the offending run. Checked runs are
	// never cache-elided, so sweeps re-simulate repeated configurations.
	Check bool
	// Runner, when non-nil, executes the sweeps; sharing one Runner
	// across experiments shares its content-addressed run cache, so
	// configurations repeated between figures simulate once. Its Workers
	// is the pool width; results are bit-identical at any width. Nil
	// builds a private GOMAXPROCS-wide runner per experiment.
	Runner *runner.Runner
	// Phases, when non-nil, is attached to every simulated run so the
	// sweep's wall-clock time is attributed to pipeline phases
	// (aggregated across the whole pool; attribution-only, results are
	// bit-identical with or without it).
	Phases *telemetry.PhaseTimer
	// Specs maps workload names to parsed declarative specs: a
	// Benchmarks entry naming a key here simulates the spec-compiled
	// stream instead of a built-in generator. Spec workloads are cached
	// and checkpointed under the spec's content fingerprint.
	Specs map[string]*spec.Spec
	// ReplayTraceDir, when set, replays every workload from a recorded
	// trace file (see TraceFileName) instead of generating it live —
	// byte-identical to live generation by the trace round-trip
	// contract. Traces must have been recorded with at least the sweep's
	// windows plus fetch headroom (RecordTraces does this); cache keys
	// use the trace's content fingerprint.
	ReplayTraceDir string
	// TraceCache, when non-nil, shares loaded traces across the sweep's
	// requests (one file read and one in-memory copy per workload
	// instead of one per cell). Optional: without it every replayed run
	// re-reads its file.
	TraceCache *TraceCache
	// PolicySpecs selects the controllers for the "policy" and
	// "counterfactual" experiments (nil = the paper's controllers). The
	// first spec is the counterfactual base policy; the rest are the
	// alternatives.
	PolicySpecs []*policy.Spec
	// CounterfactualK bounds how many alternative policies the
	// "counterfactual" experiment replays against the base policy's
	// decision trace (0 = 3).
	CounterfactualK int
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	names := workload.Benchmarks()
	if len(o.Specs) > 0 {
		builtin := make(map[string]bool, len(names))
		for _, n := range names {
			builtin[n] = true
		}
		var extra []string
		for n := range o.Specs {
			if !builtin[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		names = append(names, extra...)
	}
	return names
}

// Window returns the calibrated simulation window for a benchmark (long
// enough to cover its full phase cycle), scaled by Scale.
func (o Options) Window(bench string) uint64 {
	base := map[string]uint64{
		"cjpeg":  2_000_000,
		"crafty": 3_000_000,
		"djpeg":  1_800_000,
		"galgel": 1_800_000,
		"gzip":   3_400_000,
		"mgrid":  2_400_000,
		"parser": 4_000_000,
		"swim":   2_400_000,
		"vpr":    1_800_000,
	}
	w := base[bench]
	if w == 0 {
		w = 1_800_000
	}
	w = uint64(float64(w) * o.scale())
	if w < 50_000 {
		w = 50_000
	}
	return w
}

// Cell is one table entry.
type Cell struct {
	Text  string
	Value float64
	IsNum bool
}

// Num returns a numeric cell formatted with prec decimals.
func Num(v float64, prec int) Cell {
	return Cell{Text: fmt.Sprintf("%.*f", prec, v), Value: v, IsNum: true}
}

// Str returns a text cell.
func Str(s string) Cell { return Cell{Text: s} }

// Row is one table row.
type Row struct {
	Name  string
	Cells []Cell
}

// Table is one regenerated paper artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("benchmark")
	for _, r := range t.Rows {
		if len(r.Name) > widths[0] {
			widths[0] = len(r.Name)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Cells) && len(r.Cells[i].Text) > widths[i+1] {
				widths[i+1] = len(r.Cells[i].Text)
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0]+2, "benchmark")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", widths[i+1]+2, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, r.Name)
		for i := range t.Columns {
			cell := Cell{Text: "-"}
			if i < len(r.Cells) {
				cell = r.Cells[i]
			}
			fmt.Fprintf(&b, "%*s", widths[i+1]+2, cell.Text)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// sweeper returns the runner executing this experiment's sweeps.
func (o Options) sweeper() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.New(0)
}

// sweep runs one batch for the experiment named id and salvages it: when
// some cells fail, the *runner.SweepError still carries every successful
// cell (failed cells are zero Results), so sweep returns the Results with
// the error and the driver renders a partial table from them. Any other
// error returns nil Results. Errors are prefixed "<id>: ".
func (o Options) sweep(id string, reqs []runner.Request) ([]pipeline.Result, error) {
	rs, err := o.sweeper().RunAll(reqs)
	if err == nil {
		return rs, nil
	}
	err = fmt.Errorf("%s: %w", id, err)
	if !salvageable(err) {
		return nil, err
	}
	return rs, err
}

// salvageable reports whether a sweep error still left usable Results.
func salvageable(err error) bool {
	var se *runner.SweepError
	return errors.As(err, &se)
}

// failed reports whether a sweep cell's Result is a salvage gap: a
// successful run always commits instructions, so only a failed (or never
// executed) cell has the zero Result.
func failed(r pipeline.Result) bool { return r.Instructions == 0 }

// ipcCell renders a run's IPC, or "-" when the cell's run failed.
func ipcCell(r pipeline.Result) Cell {
	if failed(r) {
		return Str("-")
	}
	return Num(r.IPC(), 2)
}

// numOrDash renders v with prec decimals, or "-" when v carries no data
// (zero or NaN — the aggregate of an all-failed column).
func numOrDash(v float64, prec int) Cell {
	if v == 0 || math.IsNaN(v) {
		return Str("-")
	}
	return Num(v, prec)
}

// request builds one sweep cell: n instructions of benchmark bench on the
// machine cfg, with no controller, for the experiment named id
// (policyRequest resolves a policy spec first). When Options.ObsDir is set, the run carries its own
// observability registry plus cycle-sampled probes and writes
// "<id>-<bench>-<policy>" time-series and metrics artifacts under that
// directory after it executes (such runs are never cache-elided).
func (o Options) request(id, bench string, cfg pipeline.Config, n uint64) runner.Request {
	req := runner.Request{
		ID:     id,
		Bench:  bench,
		Seed:   o.seed(),
		Window: n,
		Config: cfg,
	}
	o.bindWorkload(&req)
	req.Config.Phases = o.Phases
	if o.Check {
		// One checker per run: Invariants tracks cumulative counters and
		// must not be shared across processors.
		req.Config.Checker = check.NewFailFast()
	}
	if o.ObsDir != "" {
		period := o.ObsSamplePeriod
		if period == 0 {
			period = 10_000
		}
		ob := &obs.Observer{
			Registry:     obs.NewRegistry(),
			SamplePeriod: period,
			Series:       &obs.TimeSeries{},
		}
		req.Config.Observer = ob
		dir := o.ObsDir
		req.PostRun = func(res pipeline.Result) {
			writeObsArtifacts(dir, id, res, ob)
		}
	}
	return req
}

// writeObsArtifacts exports one run's time series and metrics snapshot.
// Export failures are reported on stderr rather than aborting a sweep that
// may already be hours in.
func writeObsArtifacts(dir, id string, res pipeline.Result, ob *obs.Observer) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: obs dir: %v\n", err)
		return
	}
	base := fmt.Sprintf("%s-%s-%s", id, res.Benchmark, res.Policy)
	export := func(name string, write func(*os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: obs export %s: %v\n", name, err)
		}
	}
	export(base+".series.csv", func(f *os.File) error { return ob.Series.WriteCSV(f) })
	export(base+".metrics.json", func(f *os.File) error { return ob.Registry.Snapshot().WriteJSON(f) })
}

// Registry maps experiment IDs to their drivers. When some of a driver's runs
// fail with a *runner.SweepError, the driver salvages the sweep: it returns
// the table built from the successful cells (failed cells render as "-")
// alongside the error, so hours of completed simulation are never discarded
// because one cell crashed. Any other error yields no table.
func Registry() map[string]func(Options) (*Table, error) {
	return map[string]func(Options) (*Table, error){
		"params": func(Options) (*Table, error) { return Params(), nil },
		"table3": Table3,
		"fig3":   Fig3,
		"table4": Table4,
		"fig5":   Fig5,
		"fig6":   Fig6,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"sens":   Sensitivity,
		"ablate": Ablations,
		// Extensions beyond the paper's figures: the §4.2 leakage
		// argument quantified, and the §1/§8 multi-threaded
		// partitioning proposal.
		"ext-energy": Energy,
		"ext-smt":    SMT,
		// Policy-as-data extensions (internal/policy): the spec-driven
		// policy comparison and the decision-trace counterfactual.
		"policy":         PolicyTable,
		"counterfactual": Counterfactual,
	}
}

// IDs returns the registered experiment IDs in a stable order.
func IDs() []string {
	ids := make([]string, 0)
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Params renders the Table 1/Table 2 configuration parameters actually used.
func Params() *Table {
	cfg := pipeline.DefaultConfig()
	t := &Table{
		ID:      "params",
		Title:   "Simulator parameters (paper Tables 1 and 2)",
		Columns: []string{"value"},
	}
	add := func(name, val string) {
		t.Rows = append(t.Rows, Row{Name: name, Cells: []Cell{Str(val)}})
	}
	add("clusters", fmt.Sprintf("%d", cfg.Clusters))
	add("fetch queue / width", fmt.Sprintf("%d / %d (<=2 basic blocks)", cfg.FetchQueue, cfg.FetchWidth))
	add("dispatch / commit width", fmt.Sprintf("%d / %d", cfg.DispatchWidth, cfg.CommitWidth))
	add("branch mispredict penalty", fmt.Sprintf(">= %d cycles", cfg.FrontLatency))
	add("issue queue / cluster", fmt.Sprintf("%d (int and fp each)", cfg.IQPerCluster))
	add("registers / cluster", fmt.Sprintf("%d (int and fp each)", cfg.RegsPerCluster))
	add("ROB", fmt.Sprintf("%d", cfg.ROB))
	add("FUs / cluster", fmt.Sprintf("intALU %d, intMulDiv %d, fpALU %d, fpMulDiv %d", cfg.IntALU, cfg.IntMulDiv, cfg.FPALU, cfg.FPMulDiv))
	add("LSQ / cluster", fmt.Sprintf("%d", cfg.LSQPerCluster))
	add("interconnect", fmt.Sprintf("ring (2 unidirectional), %d cycle/hop", cfg.HopLatency))
	mc, md := mem.DefaultCentralConfig(cfg.Clusters), mem.DefaultDistConfig(cfg.Clusters)
	add("centralized L1", fmt.Sprintf("%dKB %d-way, %dB lines, %d banks, %d-cycle RAM", mc.L1Size>>10, mc.L1Ways, mc.L1Line, mc.L1Banks, mc.L1Latency))
	add("decentralized L1", fmt.Sprintf("%dKB %d-way, %dB lines, %d bank/cluster, %d-cycle RAM", md.L1Size>>10, md.L1Ways, md.L1Line, md.L1Banks/md.Clusters, md.L1Latency))
	add("L2", fmt.Sprintf("%dMB %d-way, %d cycles, at cluster 0", mc.L2Size>>20, mc.L2Ways, mc.L2Latency))
	add("memory", fmt.Sprintf("%d cycles + bus occupancy", mc.MemLatency))
	add("distant-ILP depth", fmt.Sprintf("%d instructions", cfg.DistantDepth))
	return t
}
