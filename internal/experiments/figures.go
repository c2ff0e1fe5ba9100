package experiments

import (
	"fmt"
	"sort"

	"clustersim/internal/pipeline"
	"clustersim/internal/policy"
	"clustersim/internal/runner"
	"clustersim/internal/stats"
	"clustersim/internal/workload"
)

// Table3 reproduces the benchmark-characterization table: base IPC on the
// monolithic machine and instructions per branch mispredict, against the
// paper's published values, plus the measured instruction mix (branches
// and memory references per committed instruction).
func Table3(o Options) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Benchmark characterization (paper Table 3)",
		Columns: []string{"suite", "IPC", "IPC(paper)", "mispred-int", "mispred-int(paper)", "branch-frac", "mem-frac"},
		Notes: []string{
			"IPC measured on the monolithic machine (16-cluster resources, no communication cost)",
			"branch-frac and mem-frac: branches and loads+stores per committed instruction",
		},
	}
	benches := o.benchmarks()
	reqs := make([]runner.Request, len(benches))
	for i, b := range benches {
		reqs[i] = o.request("table3", b, pipeline.MonolithicConfig(), o.Window(b))
	}
	rs, err := o.sweep("table3", reqs)
	if rs == nil {
		return nil, err
	}
	for i, b := range benches {
		pd, _ := workload.Paper(b)
		r := rs[i]
		mispred, branches, mems := Str("-"), Str("-"), Str("-")
		if !failed(r) {
			mispred = Num(r.MispredictInterval(), 0)
			branches = Num(float64(r.Branch.Lookups)/float64(r.Instructions), 4)
			mems = Num(float64(r.Mem.Loads+r.Mem.Stores)/float64(r.Instructions), 4)
		}
		t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
			Str(pd.Suite),
			ipcCell(r),
			Num(pd.BaseIPC, 2),
			mispred,
			Num(pd.MispredictInterval, 0),
			branches,
			mems,
		}})
	}
	return t, err
}

// Fig3 reproduces Figure 3: IPC of statically fixed 2/4/8/16-cluster
// organizations with the centralized cache and ring interconnect, plus the
// §4.3 distant-ILP degree of the 16-cluster run, which decides whether the
// wide organization pays.
func Fig3(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "IPC of fixed cluster organizations (paper Figure 3)",
		Columns: []string{"2", "4", "8", "16", "best", "distant(16)"},
		Notes: []string{
			"distant(16): fraction of committed instructions of the 16-cluster run that issued >=120 behind the ROB head",
		},
	}
	specs, err := columnPolicies([]string{"static-2", "static-4", "static-8", "static-16"})
	if err != nil {
		return nil, err
	}
	sweep, err := schemeSweep(o, "fig3", pipeline.DefaultConfig(), specs)
	if sweep == nil {
		return nil, err
	}
	for bi, b := range o.benchmarks() {
		row := Row{Name: b}
		best, bestCell := 0.0, Str("-")
		for ci, r := range sweep[bi] {
			row.Cells = append(row.Cells, ipcCell(r))
			if !failed(r) && r.IPC() > best {
				best, bestCell = r.IPC(), Str(t.Columns[ci])
			}
		}
		distant := Str("-")
		if wide := sweep[bi][3]; !failed(wide) { // the 16-cluster cell
			distant = Num(wide.DistantILPFraction(), 4)
		}
		row.Cells = append(row.Cells, bestCell, distant)
		t.Rows = append(t.Rows, row)
	}
	return t, err
}

// Table4 reproduces the instability-factor analysis: the minimum interval
// length with <5% instability and the instability at a 10K interval.
func Table4(o Options) (*Table, error) {
	t := &Table{
		ID:      "table4",
		Title:   "Instability factors vs interval length (paper Table 4)",
		Columns: []string{"min-interval", "factor%", "instab@10K%", "paper-min", "paper@10K%"},
		Notes: []string{
			"phase lengths are scaled ~10x down from the paper's, so minimum intervals scale accordingly",
		},
	}
	mults := []int{1, 2, 4, 8, 16, 32, 64, 128}
	benches := o.benchmarks()
	// The recorder controller is harvested after its run (its interval
	// trace feeds the instability analysis), so each request must actually
	// execute on its own recorder: carrying no PolicyKey, it is uncacheable.
	recs := make([]*stats.Recorder, len(benches))
	reqs := make([]runner.Request, len(benches))
	for i, b := range benches {
		recs[i] = stats.NewRecorder(10_000)
		reqs[i] = o.request("table4", b, pipeline.DefaultConfig(), 2*o.Window(b))
		reqs[i].Controller = recs[i]
	}
	rs, err := o.sweep("table4", reqs)
	if rs == nil {
		return nil, err
	}
	for i, b := range benches {
		pd, _ := workload.Paper(b)
		if failed(rs[i]) {
			// The run died: its recorder's trace is partial at best.
			t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
				Str("-"), Str("-"), Str("-"),
				Num(pd.MinStableInterval, 0),
				Num(pd.InstabilityAt10K, 0),
			}})
			continue
		}
		trace := recs[i].Intervals()
		th := stats.DefaultThresholds()
		minLen, factor := stats.MinStableInterval(trace, 10_000, mults, 5, th)
		at10K := stats.Instability(trace, th)
		t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
			Num(float64(minLen), 0),
			Num(factor, 1),
			Num(at10K, 1),
			Num(pd.MinStableInterval, 0),
			Num(pd.InstabilityAt10K, 0),
		}})
	}
	return t, err
}

// schemeSweep runs one cell per benchmark × policy spec on machine cfg as a
// single batch (bench-major) and returns its Results indexed [bench][spec],
// salvaged as Options.sweep does.
func schemeSweep(o Options, id string, cfg pipeline.Config, specs []*policy.Spec) ([][]pipeline.Result, error) {
	benches := o.benchmarks()
	reqs := make([]runner.Request, 0, len(benches)*len(specs))
	for _, b := range benches {
		for _, s := range specs {
			req, err := o.policyRequest(id, b, cfg, s)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			reqs = append(reqs, req)
		}
	}
	flat, err := o.sweep(id, reqs)
	if flat == nil {
		return nil, err
	}
	out := make([][]pipeline.Result, len(benches))
	for bi := range benches {
		out[bi] = flat[bi*len(specs) : (bi+1)*len(specs)]
	}
	return out, err
}

// schemeFigure renders a scheme figure (Figs 5–8): one IPC row per
// benchmark, a cell per column of t (each a columnPolicy label) simulated on
// machine cfg, then summarize's geomean row and vs-best-static notes. The
// first two columns are the static bases. cell, when non-nil, sees every
// successful cell's Result with its column index.
func schemeFigure(o Options, t *Table, cfg pipeline.Config, cell func(col int, r pipeline.Result)) (*Table, error) {
	specs, err := columnPolicies(t.Columns)
	if err != nil {
		return nil, err
	}
	sweep, err := schemeSweep(o, t.ID, cfg, specs)
	if sweep == nil {
		return nil, err
	}
	ipcs := map[string][]float64{}
	for bi, b := range o.benchmarks() {
		row := Row{Name: b}
		for ci, r := range sweep[bi] {
			row.Cells = append(row.Cells, ipcCell(r))
			ipcs[b] = append(ipcs[b], r.IPC())
			if cell != nil && !failed(r) {
				cell(ci, r)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	summarize(t, ipcs, []int{0, 1})
	return t, err
}

// summarize appends a geomean row plus improvement-vs-best-static notes.
// staticCols identifies which columns are static configurations. Failed cells
// of a salvaged sweep carry IPC 0 and are excluded from the aggregates; a
// column with no surviving cells renders "-".
func summarize(t *Table, ipcs map[string][]float64, staticCols []int) {
	if len(ipcs) == 0 {
		return
	}
	// Sum in name order: float addition is not associative, so map order
	// would make the geomeans' last bit vary from run to run.
	names := make([]string, 0, len(ipcs))
	for name := range ipcs {
		names = append(names, name)
	}
	sort.Strings(names)
	cols := len(t.Columns)
	gm := make([]float64, cols)
	for c := 0; c < cols; c++ {
		var vals []float64
		for _, name := range names {
			if row := ipcs[name]; c < len(row) && row[c] > 0 {
				vals = append(vals, row[c])
			}
		}
		gm[c] = geomean(vals)
	}
	row := Row{Name: "geomean"}
	for _, v := range gm {
		row.Cells = append(row.Cells, numOrDash(v, 2))
	}
	t.Rows = append(t.Rows, row)
	bestStatic := 0.0
	for _, c := range staticCols {
		if gm[c] > bestStatic {
			bestStatic = gm[c]
		}
	}
	for c := 0; c < cols; c++ {
		isStatic := false
		for _, s := range staticCols {
			if c == s {
				isStatic = true
			}
		}
		if isStatic || bestStatic == 0 || gm[c] == 0 {
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s vs best static (geomean): %+.1f%%",
			t.Columns[c], 100*(gm[c]/bestStatic-1)))
	}
}

// Fig5 reproduces Figure 5: static 4/16 against the interval-based scheme
// with exploration and the no-exploration distant-ILP scheme at three fixed
// interval lengths, on the centralized cache.
func Fig5(o Options) (*Table, error) {
	var distant, reconf []float64
	t, err := schemeFigure(o, &Table{
		ID:      "fig5",
		Title:   "Interval-based schemes, centralized cache (paper Figure 5)",
		Columns: []string{"static-4", "static-16", "explore", "dilp-500", "dilp-1K", "dilp-10K"},
	}, pipeline.DefaultConfig(), func(col int, r pipeline.Result) {
		if col == 2 { // explore
			distant = append(distant, r.DistantILPFraction())
			reconf = append(reconf, r.ReconfigsPerMInstr())
		}
	})
	if t == nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"explore scheme: mean distant-ILP fraction %.2f, %.0f reconfigurations per M instructions",
		mean(distant), mean(reconf)))
	return t, err
}

// Fig6 reproduces Figure 6: the fine-grained reconfiguration schemes
// against the exploration scheme and the static bases.
func Fig6(o Options) (*Table, error) {
	return schemeFigure(o, &Table{
		ID:      "fig6",
		Title:   "Fine-grained reconfiguration (paper Figure 6)",
		Columns: []string{"static-4", "static-16", "explore", "fg-branch", "fg-callreturn"},
	}, pipeline.DefaultConfig(), nil)
}

// Fig7 reproduces Figure 7: the decentralized cache model under the
// interval-based schemes, including reconfiguration cache flushes.
func Fig7(o Options) (*Table, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Cache = pipeline.DecentralizedCache
	var flushWB, flushes uint64
	var reconf []float64
	t, err := schemeFigure(o, &Table{
		ID:      "fig7",
		Title:   "Interval-based schemes, decentralized cache (paper Figure 7)",
		Columns: []string{"static-4", "static-16", "explore", "dilp-1K", "dilp-10K"},
	}, cfg, func(col int, r pipeline.Result) {
		if col == 2 { // explore
			flushWB += r.Mem.FlushWritebacks
			flushes += r.Mem.Flushes
			reconf = append(reconf, r.ReconfigsPerMInstr())
		}
	})
	if t == nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"explore scheme: %d reconfiguration flushes, %d writebacks (paper: flushes cost ~0.3%% IPC)",
		flushes, flushWB))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"explore scheme: mean %.0f reconfigurations per M instructions",
		mean(reconf)))
	return t, err
}

// Fig8 reproduces Figure 8: the grid interconnect under the exploration
// scheme.
func Fig8(o Options) (*Table, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Topology = pipeline.GridTopology
	return schemeFigure(o, &Table{
		ID:      "fig8",
		Title:   "Grid interconnect (paper Figure 8)",
		Columns: []string{"static-4", "static-16", "explore"},
	}, cfg, nil)
}
