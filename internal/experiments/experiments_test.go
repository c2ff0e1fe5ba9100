package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clustersim/internal/runner"
)

// -update rewrites the golden files under testdata from the current code.
var update = flag.Bool("update", false, "rewrite golden files")

// tinyOpts keeps experiment tests fast: two benchmarks, small windows.
func tinyOpts() Options {
	return Options{Seed: 1, Scale: 0.08, Benchmarks: []string{"gzip", "vpr"}}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablate", "counterfactual", "ext-energy", "ext-smt", "fig3", "fig5", "fig6", "fig7", "fig8", "params", "policy", "sens", "table3", "table4"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	reg := Registry()
	for _, id := range got {
		if reg[id] == nil {
			t.Fatalf("nil driver for %s", id)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 || o.scale() != 1 {
		t.Fatal("zero-options defaults wrong")
	}
	if len(o.benchmarks()) != 9 {
		t.Fatalf("default benchmark set: %v", o.benchmarks())
	}
	if o.Window("gzip") <= o.Window("cjpeg") {
		t.Fatal("gzip window should exceed cjpeg's (longer phases)")
	}
	small := Options{Scale: 0.0001}
	if small.Window("gzip") < 50_000 {
		t.Fatal("window floor not applied")
	}
}

func TestTableFormat(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Name: "row1", Cells: []Cell{Num(1.5, 2), Str("hi")}},
			{Name: "row2", Cells: []Cell{Num(2.25, 2)}}, // short row
		},
		Notes: []string{"a note"},
	}
	s := tb.Format()
	for _, want := range []string{"row1", "1.50", "hi", "a note", "== x: test =="} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestGeomean(t *testing.T) {
	if geomean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %f", g)
	}
	if geomean([]float64{1, 0}) != 0 {
		t.Fatal("non-positive input should yield 0")
	}
}

// TestSummarizeBitStable: the geomean row sums logarithms across
// benchmarks, so it must visit them in a fixed order; a map-ordered sum
// varies in its last bit from call to call.
func TestSummarizeBitStable(t *testing.T) {
	ipcs := map[string][]float64{}
	for i := 0; i < 40; i++ {
		x := float64(i + 1)
		ipcs[fmt.Sprintf("bench%02d", i)] = []float64{1 / 3.0 * x, 0.7 + 1/x, math.Sqrt(x)}
	}
	var first *Table
	for rep := 0; rep < 50; rep++ {
		tb := &Table{Columns: []string{"a", "b", "c"}}
		summarize(tb, ipcs, []int{0})
		if first == nil {
			first = tb
			continue
		}
		for c, cell := range tb.Rows[0].Cells {
			if want := first.Rows[0].Cells[c]; math.Float64bits(cell.Value) != math.Float64bits(want.Value) {
				t.Fatalf("rep %d col %d: geomean %v, first call %v", rep, c, cell.Value, want.Value)
			}
		}
	}
}

func TestParams(t *testing.T) {
	tb := Params()
	if len(tb.Rows) < 10 {
		t.Fatalf("params table too small: %d rows", len(tb.Rows))
	}
	if !strings.Contains(tb.Format(), "480") {
		t.Fatal("ROB size missing from params")
	}
}

// checkFraction fails unless column col of every row is a number in [0, 1].
func checkFraction(t *testing.T, tb *Table, col int) {
	t.Helper()
	for _, r := range tb.Rows {
		if c := r.Cells[col]; !c.IsNum || c.Value < 0 || c.Value > 1 {
			t.Errorf("%s %s: %q is not a fraction", r.Name, tb.Columns[col], c.Text)
		}
	}
}

func TestTable3Tiny(t *testing.T) {
	tb, err := Table3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.Cells[1].Value <= 0 {
			t.Errorf("%s: non-positive IPC", r.Name)
		}
	}
	checkFraction(t, tb, 5) // branch-frac
	checkFraction(t, tb, 6) // mem-frac
}

func TestFig3Tiny(t *testing.T) {
	tb, err := Fig3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		for i := 0; i < 4; i++ {
			if r.Cells[i].Value <= 0 {
				t.Errorf("%s col %d: non-positive IPC", r.Name, i)
			}
		}
	}
	checkFraction(t, tb, 5) // distant(16)
}

// TestCharacterizationGoldenCSV pins every registry experiment's table at
// the tiny scale byte for byte, in ID order on one shared runner: its CSV
// followed by its notes (the geomean comparisons, energy and fitness
// aggregates live there). A diff means an intended simulator or workload
// change (re-bless with `go test ./internal/experiments -run GoldenCSV
// -update`) or an unintended determinism break.
func TestCharacterizationGoldenCSV(t *testing.T) {
	var got bytes.Buffer
	o := tinyOpts()
	o.Runner = runner.New(0)
	reg := Registry()
	for _, id := range IDs() {
		tb, err := reg[id](o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got.WriteString(tb.CSV())
		for _, n := range tb.Notes {
			fmt.Fprintf(&got, "note: %s\n", n)
		}
	}
	path := filepath.Join("testdata", "registry.csv")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("CSV drifted from the golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

func TestTable4Tiny(t *testing.T) {
	tb, err := Table4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		if r.Cells[0].Value < 10_000 {
			t.Errorf("%s: min interval %f below base", r.Name, r.Cells[0].Value)
		}
		if r.Cells[2].Value < 0 || r.Cells[2].Value > 100 {
			t.Errorf("%s: instability %f out of range", r.Name, r.Cells[2].Value)
		}
	}
}

func TestFig5Tiny(t *testing.T) {
	tb, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks + geomean row.
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if tb.Rows[2].Name != "geomean" {
		t.Fatal("missing geomean row")
	}
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "explore vs best static") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing improvement note")
	}
}

// TestFig5StaticCellsAreFig3Cells: a static organization is one
// definition, so on one runner Fig 5's static-4 and static-16 cells are
// cache hits on Fig 3's 4- and 16-cluster cells and equal them exactly.
func TestFig5StaticCellsAreFig3Cells(t *testing.T) {
	o := tinyOpts()
	o.Benchmarks = []string{"gzip"}
	o.Runner = runner.New(0)
	fig3, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	hits := o.Runner.Stats().CacheHits
	fig5, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	benches := len(o.benchmarks())
	if got := o.Runner.Stats().CacheHits - hits; got != 2*benches {
		t.Errorf("Fig 5 made %d cache hits, want its %d static cells", got, 2*benches)
	}
	for bi := 0; bi < benches; bi++ {
		r3, r5 := fig3.Rows[bi], fig5.Rows[bi]
		// Fig 3 columns: 2, 4, 8, 16; Fig 5: static-4, static-16, ...
		if r5.Cells[0].Value != r3.Cells[1].Value || r5.Cells[1].Value != r3.Cells[3].Value {
			t.Errorf("%s: Fig 5 static-4/16 IPC %v/%v, Fig 3 4/16 clusters %v/%v", r3.Name,
				r5.Cells[0].Value, r5.Cells[1].Value, r3.Cells[1].Value, r3.Cells[3].Value)
		}
	}
}

func TestFig6Fig7Fig8Tiny(t *testing.T) {
	for _, f := range []func(Options) (*Table, error){Fig6, Fig7, Fig8} {
		tb, err := f(tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) < 3 {
			t.Fatalf("%s: %d rows", tb.ID, len(tb.Rows))
		}
		for _, r := range tb.Rows {
			for i, c := range r.Cells {
				if c.IsNum && c.Value <= 0 {
					t.Errorf("%s %s col %d non-positive", tb.ID, r.Name, i)
				}
			}
		}
	}
}

func TestSensitivityTiny(t *testing.T) {
	o := tinyOpts()
	o.Benchmarks = []string{"gzip"}
	tb, err := Sensitivity(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("%d variants", len(tb.Rows))
	}
}

func TestEnergyTiny(t *testing.T) {
	tb, err := Energy(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		save := r.Cells[3].Value
		if save < 0 || save > 100 {
			t.Errorf("%s: leakage saving %f out of range", r.Name, save)
		}
		if r.Cells[4].Value <= 0 {
			t.Errorf("%s: non-positive EDP ratio", r.Name)
		}
	}
}

func TestSMTTiny(t *testing.T) {
	o := tinyOpts()
	tb, err := SMT(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		for i := 0; i < 4; i++ {
			if r.Cells[i].IsNum && r.Cells[i].Value <= 0 {
				t.Errorf("%s col %d: non-positive throughput", r.Name, i)
			}
		}
	}
}

func TestAblationsTiny(t *testing.T) {
	tb, err := Ablations(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Idealizations can only help: the free variants must not be slower
	// than their base.
	base := tb.Rows[0].Cells[0].Value
	for _, i := range []int{1, 2} {
		if tb.Rows[i].Cells[0].Value < base*0.99 {
			t.Errorf("central ablation %s below base", tb.Rows[i].Name)
		}
	}
	distBase := tb.Rows[3].Cells[0].Value
	for _, i := range []int{4, 5} {
		if tb.Rows[i].Cells[0].Value < distBase*0.99 {
			t.Errorf("dist ablation %s below base", tb.Rows[i].Name)
		}
	}
	if len(tb.Notes) < 2 {
		t.Fatal("missing latency/disabled notes")
	}
}

// TestParallelDeterminism: a figure sweep through a 4-wide runner emits the
// same CSV, byte for byte (including row order), as the serial path.
func TestParallelDeterminism(t *testing.T) {
	serialOpts := tinyOpts()
	serialOpts.Runner = runner.New(1)
	parOpts := tinyOpts()
	parOpts.Runner = runner.New(4)
	for _, f := range []func(Options) (*Table, error){Fig5, Sensitivity} {
		ts, err := f(serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := f(parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if ts.CSV() != tp.CSV() {
			t.Fatalf("%s: parallel CSV differs from serial:\n--- serial\n%s--- parallel\n%s",
				ts.ID, ts.CSV(), tp.CSV())
		}
	}
}

// TestCheckedSweep: Options.Check runs a figure sweep under the fail-fast
// invariant checker; a healthy simulator completes with identical tables,
// and checked requests bypass the shared run cache — a cache hit would
// return a result without validating the run.
func TestCheckedSweep(t *testing.T) {
	rn := runner.New(2)
	o := tinyOpts()
	o.Benchmarks = []string{"gzip"}
	o.Runner = rn
	want, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	first := rn.Stats().Runs
	o.Check = true
	got, err := Fig3(o)
	if err != nil {
		t.Fatalf("checked sweep failed: %v", err)
	}
	if want.Format() != got.Format() {
		t.Fatalf("checked sweep changed results:\nplain:\n%s\nchecked:\n%s", want.Format(), got.Format())
	}
	st := rn.Stats()
	if st.Runs != 2*first {
		t.Fatalf("checked sweep reused cached runs: %d runs after, %d before (cache hits %d)",
			st.Runs, first, st.CacheHits)
	}
}

// TestSalvagePartialTable: when every run of a sweep times out, the driver
// still returns its table — every measured cell a "-" — alongside the
// *runner.SweepError, so a long sweep's surviving cells are never thrown
// away because some cells crashed.
func TestSalvagePartialTable(t *testing.T) {
	rn := runner.New(1)
	rn.Timeout = time.Millisecond
	o := tinyOpts()
	o.Runner = rn
	tab, err := Fig3(o)
	if err == nil {
		t.Fatal("expected a sweep error")
	}
	var se *runner.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("want *SweepError, got %T: %v", err, err)
	}
	if tab == nil {
		t.Fatal("salvageable failure returned no table")
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			if c.Text != "-" {
				t.Fatalf("failed cell rendered data: %+v", row)
			}
		}
	}
	// Table 3's measured columns go dark too; its suite and paper
	// columns are published data, not runs.
	tab, err = Table3(o)
	if !salvageable(err) || tab == nil {
		t.Fatalf("table3: want a salvaged table, got %v, %v", tab, err)
	}
	for _, row := range tab.Rows {
		for _, col := range []int{1, 3, 5, 6} { // IPC, mispred-int, branch-frac, mem-frac
			if c := row.Cells[col]; c.Text != "-" {
				t.Fatalf("table3 %s %s: failed cell rendered %q", row.Name, tab.Columns[col], c.Text)
			}
		}
	}
}

// TestSalvageEveryDriver: with every run timed out, each driver that
// simulates through the runner still returns its table, and its one
// *runner.SweepError accounts for every cell the driver submitted, however
// many batches it ran them in.
func TestSalvageEveryDriver(t *testing.T) {
	for id, driver := range Registry() {
		if id == "params" || id == "ext-smt" {
			continue // no runner cells
		}
		rn := runner.New(0)
		rn.Timeout = time.Millisecond
		o := tinyOpts()
		o.Runner = rn
		tab, err := driver(o)
		var se *runner.SweepError
		if !errors.As(err, &se) {
			t.Errorf("%s: want a *SweepError, got %v", id, err)
			continue
		}
		if tab == nil {
			t.Errorf("%s: salvageable failure returned no table", id)
		}
		if !strings.HasPrefix(err.Error(), id+": ") {
			t.Errorf("%s: error %q does not name the experiment", id, err)
		}
		st := rn.Stats()
		cells := st.Runs + st.Failures + st.CacheHits + st.Deduped
		if se.Total != cells || len(se.Failures) != cells {
			t.Errorf("%s: error lists %d failures of %d cells, the runner took %d cells",
				id, len(se.Failures), se.Total, cells)
		}
	}
}

// TestSalvageMixedCells: with a healthy runner the same sweep renders real
// numbers, so the dash rendering above is specifically the failure path.
func TestSalvageMixedCells(t *testing.T) {
	o := tinyOpts()
	tab, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			if c.Text == "-" {
				t.Fatalf("healthy sweep rendered a gap: %+v", row)
			}
		}
	}
}
