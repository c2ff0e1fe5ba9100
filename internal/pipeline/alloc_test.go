package pipeline

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"clustersim/internal/workload"
)

// -update rewrites testdata/alloc_budget.golden from the current code and
// toolchain.
var update = flag.Bool("update", false, "rewrite golden files")

// allocWindows is how many 10K-instruction windows one budget measurement
// averages over. The count is fixed, never b.N, so start-up allocations
// cannot leak into the per-window figure.
const allocWindows = 10

// flatAllocBudget is the per-window budget where the golden's pins do not
// apply: under the race detector, which makes sync.Pool drop items at
// random, and on any toolchain other than the one the golden records,
// whose runtime may allocate differently (map growth on the memory
// system's miss table, for one).
const flatAllocBudget = 8

// TestSteadyStateAllocBudget pins the per-window allocation count of the
// simulation hot loop for every benchmark under both steppers. The fetch
// path fills fetch-queue slots in place and the mem/commit stages reuse
// their scratch slices, so a steady-state 10K-instruction window allocates
// a handful of times at most (the Result's policy name, an occasional
// slice regrow). Before the in-place fetch fill this was ~10,000
// allocations per window, one escaping isa.Instruction per fetch.
//
// On the toolchain the golden names, each cell must stay within its pinned
// count exactly, so one extra escaping allocation per window fails every
// cell. Regenerate with -update when a change intends to move a count.
func TestSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is slow under -short")
	}
	var got bytes.Buffer
	fmt.Fprintf(&got, "toolchain %s\n", runtime.Version())
	var cells []string
	counts := map[string]float64{}
	for _, bench := range workload.Benchmarks() {
		for _, legacy := range []bool{false, true} {
			cell := bench + "/event"
			if legacy {
				cell = bench + "/legacy"
			}
			cells = append(cells, cell)
			counts[cell] = windowAllocs(t, bench, legacy)
			fmt.Fprintf(&got, "%s %.0f\n", cell, counts[cell])
		}
	}
	path := filepath.Join("testdata", "alloc_budget.golden")
	if *update {
		if raceEnabled {
			t.Fatal("-update under -race would pin the race detector's counts")
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	toolchain, pins, err := readAllocBudget(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	exact := !raceEnabled && toolchain == runtime.Version()
	if !exact {
		t.Logf("pins recorded on %s; %s (race=%v) checks the flat budget of %d",
			toolchain, runtime.Version(), raceEnabled, flatAllocBudget)
	}
	for _, cell := range cells {
		budget, ok := pins[cell]
		if !exact {
			budget, ok = flatAllocBudget, true
		}
		switch {
		case !ok:
			t.Errorf("%s: no pinned budget (run with -update)", cell)
		case counts[cell] > budget:
			t.Errorf("%s: %.0f allocs per 10K-instruction window, budget %.0f", cell, counts[cell], budget)
		}
	}
}

// windowAllocs runs bench to steady state (scratch slices at working size)
// and returns its allocations per 10K-instruction window.
func windowAllocs(t *testing.T, bench string, legacy bool) float64 {
	t.Helper()
	gen, err := workload.New(bench, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LegacyStepper = legacy
	p, err := New(cfg, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, p, 50_000)
	return testing.AllocsPerRun(allocWindows, func() {
		mustRun(t, p, 10_000)
	})
}

// readAllocBudget parses the golden: a "toolchain <version>" line, then one
// "<bench>/<stepper> <allocs>" line per cell.
func readAllocBudget(path string) (string, map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	toolchain, ok := strings.CutPrefix(lines[0], "toolchain ")
	if !ok {
		return "", nil, fmt.Errorf("%s: first line %q does not name the toolchain", path, lines[0])
	}
	pins := map[string]float64{}
	for _, line := range lines[1:] {
		var cell string
		var n float64
		if _, err := fmt.Sscanf(line, "%s %g", &cell, &n); err != nil {
			return "", nil, fmt.Errorf("%s: line %q: %w", path, line, err)
		}
		pins[cell] = n
	}
	return toolchain, pins, nil
}
