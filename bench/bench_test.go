package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSize keeps every workload to a fraction of a second: one benchmark,
// and windows at Options.Window's 50K floor.
var smokeSize = size{
	benches:     []string{"gzip"},
	sweepScale:  0.001,
	hotInstrs:   20_000,
	replayScale: 0.001,
	ckptScale:   0.001,
	ckptEvery:   25_000,
	prefix:      1 << 10,
}

// TestEveryWorkloadPrintsItsMetrics runs every workload BENCHMARK.json
// names at the smoke size with one rep, untraced and traced, and checks
// that all checks pass, that every end-to-end metric is measured and
// positive, that every per-layer metric is measured by some workload, and
// that the traced rep's Chrome trace loads.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	measured := map[string]bool{}
	for _, wl := range bf.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %s, which the command lacks", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			chrome := filepath.Join(t.TempDir(), "trace.json")
			cfg := config{workload: w.name, seed: 1, trace: traced, traceOut: chrome, root: "..", size: smokeSize}
			rec, err := measure(cfg, bf, w, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			l, err := resultLine(rec, bf)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
				t.Fatalf("%s traced=%t: correct=%t failed=%d attempted=%d %q", w.name, traced, l.Correct, l.Failed, l.Attempted, rec.Failures)
			}
			if !traced {
				for name, m := range l.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
				continue
			}
			for name := range rec.Layers {
				measured[name] = true
			}
			data, err := os.ReadFile(chrome)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) < 2 {
				t.Errorf("%s: chrome trace does not load: %v (%d events)", w.name, err, len(doc.TraceEvents))
			}
		}
	}
	for _, m := range bf.PerLayer {
		if !measured[m.Name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, which no workload measures", m.Name)
		}
	}
}

// TestCorruptedReferenceIsCounted proves a digest mismatch between a timed
// rep and the reference is a counted failure.
func TestCorruptedReferenceIsCounted(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("hot-loop")
	cfg := config{workload: w.name, seed: 1, root: "..", size: smokeSize, corruptRef: true}
	rec, err := measure(cfg, bf, w, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != 1 || !strings.Contains(strings.Join(rec.Failures, "\n"), "differs from the reference") {
		t.Fatalf("correct=%t failed=%d failures=%q, want one digest failure", rec.Correct, rec.Failed, rec.Failures)
	}
}

// TestQuartilesMatchPython pins summarize to Python's
// statistics.quantiles(xs, n=4), the method BENCHMARK.json spreads use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %v %v %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.m, c.q3)
		}
	}
}

// TestCompare checks that -compare accepts two agreeing sets and rejects a
// moved median and a changed exact count.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, ipc float64) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 3; seed++ {
			rec := &record{
				Workload: "hot-loop", Seed: seed, Inputs: "00",
				E2E: map[string]summary{
					"wall_s": {Median: wall}, "minstr_per_s": {Median: 1 / wall},
					"peak_rss_mb": {Median: 20}, "setup_s": {Median: 0.1},
				},
				Exact: map[string]float64{"pipeline.ipc_geomean": ipc},
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", 2, 1.5)
	for _, c := range []struct {
		name string
		wall float64
		ipc  float64
		want int
	}{
		{"agree", 2.02, 1.5, exitOK},
		{"slower", 3, 1.5, exitFail},
		{"exact-differs", 2, 1.6, exitFail},
	} {
		var out bytes.Buffer
		b := write(c.name+".jsonl", c.wall, c.ipc)
		if code := run([]string{"--compare", "--root", "..", a, b}, &out, io.Discard); code != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.want, out.String())
		}
	}
}
