package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// extraUnits are the units of the layer metrics BENCHMARK.json does not
// declare, because only some workloads measure them. They appear in the
// report and the record, not in the JSON line, because a layer a workload
// bypasses has no time to report.
var extraUnits = map[string]string{
	"pipeline.new_us":             "us",
	"core.oncommit_ns":            "ns",
	"core.share":                  "ratio",
	"workload.next_ns":            "ns",
	"workload.share":              "ratio",
	"workload.drain_ns_per_instr": "ns",
	"spec.compile_ms":             "ms",
	"trace.record_s":              "s",
	"trace.write_s":               "s",
	"trace.read_s":                "s",
	"trace.replay_ns_per_instr":   "ns",
	"snap.save_ms":                "ms",
	"snap.load_ms":                "ms",
	"runner.cells":                "count",
	"runner.executed":             "count",
	"runner.queue_wait_ms":        "ms",
	"runner.cell_ms_p50":          "ms",
	"runner.cell_ms_p90":          "ms",
	"runner.checkpoint_s":         "s",
	"runner.load_persisted_ms":    "ms",
	"runner.hit_us_per_cell":      "us",
	"experiments.self_s":          "s",
}

func unitOf(name string, bf *benchmarkFile) string {
	for _, m := range bf.PerLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return extraUnits[name]
}

// summary describes a metric's samples within one run.
type summary struct {
	N       int       `json:"n"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// summarize returns the order statistics of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method).
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Samples: xs}
	if len(s) == 0 {
		return out
	}
	out.Min, out.Max = s[0], s[len(s)-1]
	out.Q1, out.Median, out.Q3 = quartile(s, 1), median(s), quartile(s, 3)
	return out
}

func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the i-th quartile of sorted s by the exclusive method.
func quartile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := min(max(i*m/4, 1), n-1)
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// quantile returns the p-quantile of xs by linear interpolation.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// record is everything one run measured; --record appends it as one JSON
// line, and -compare reads two files of them.
type record struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	Trace         bool               `json:"trace"`
	Inputs        string             `json:"inputs"`
	Workers       int                `json:"workers"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	FailRatio     float64            `json:"fail_ratio"`
	Failures      []string           `json:"failures,omitempty"`
	E2E           map[string]summary `json:"e2e"`
	Layers        map[string]float64 `json:"layers"`
	Exact         map[string]float64 `json:"exact"`
	SelfTimes     map[string]float64 `json:"self_times_s,omitempty"`
	TraceOverhead float64            `json:"trace_overhead,omitempty"`
}

// metric is one entry of the JSON line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the JSON object printed as the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine builds the JSON line from the metrics BENCHMARK.json declares:
// the per-layer ones for a traced run, the end-to-end ones otherwise. A
// per-layer metric of a layer the workload bypasses reads 0; an end-to-end
// metric the run did not measure is an error.
func resultLine(rec *record, bf *benchmarkFile) (line, error) {
	out := line{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metric{}}
	if rec.Trace {
		for _, m := range bf.PerLayer {
			out.Metrics[m.Name] = metric{rec.Layers[m.Name], m.Unit}
		}
		return out, nil
	}
	for _, m := range bf.EndToEnd {
		s, ok := rec.E2E[m.Name]
		if !ok {
			return line{}, fmt.Errorf("BENCHMARK.json declares end-to-end metric %s, which clusterbench does not measure", m.Name)
		}
		out.Metrics[m.Name] = metric{s.Median, m.Unit}
	}
	return out, nil
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for a reader: every end-to-end metric with its
// samples, the checks, and with --trace 1 the self-time table and every
// layer metric the workload measured.
func report(w io.Writer, rec *record, bf *benchmarkFile) {
	fmt.Fprintf(w, "clusterbench %s seed=%d workers=%d inputs=%s\n", rec.Workload, rec.Seed, rec.Workers, rec.Inputs)
	for _, m := range bf.EndToEnd {
		s := rec.E2E[m.Name]
		fmt.Fprintf(w, "  %-14s %12.6g %-9s n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g samples=%s\n",
			m.Name, s.Median, m.Unit, s.N, s.Min, s.Q1, s.Q3, s.Max, fmtSamples(s.Samples))
	}
	fmt.Fprintf(w, "  %-14s %12.6g %-9s (%d failed of %d attempted cells and checks)\n",
		"fail_ratio", rec.FailRatio, "ratio", rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	if !rec.Trace {
		return
	}
	total := 0.0
	for _, s := range rec.SelfTimes {
		total += s
	}
	fmt.Fprintf(w, "per-layer self time of the traced rep (%.4g s):\n", total)
	for _, layer := range traceLayers {
		s := rec.SelfTimes[layer]
		fmt.Fprintf(w, "  %-12s %10.4f s %6.1f%%\n", layer, s, 100*s/total)
	}
	fmt.Fprintf(w, "trace_overhead %+.4f (traced rep / median untraced rep - 1)\n", rec.TraceOverhead)
	names := make([]string, 0, len(rec.Layers))
	for k := range rec.Layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-layer metrics:\n")
	for _, k := range names {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", k, rec.Layers[k], unitOf(k, bf))
	}
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.6g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles (over the runs' reported values) with the change
// against the metric's bound from BENCHMARK.json, then checks that every
// seed both sets ran had identical inputs and identical exact counts. It
// exits nonzero when a median moved by its bound or more, or an exact
// count differs.
func compareSets(root string, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintf(stderr, "clusterbench: -compare takes two record files\n")
		return exitUsage
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintf(stderr, "clusterbench: %v\n", err)
		return exitUsage
	}
	sets := make([][]record, 2)
	for i, f := range files {
		if sets[i], err = readRecords(f); err != nil {
			fmt.Fprintf(stderr, "clusterbench: %v\n", err)
			return exitUsage
		}
	}
	ok := true
	fmt.Fprintf(stdout, "%-18s %-13s %12s %-20s %12s %-20s %8s %6s %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound", "verdict")
	quartiles := func(s summary) string { return fmt.Sprintf("[%.4g, %.4g]", s.Q1, s.Q3) }
	for _, wl := range bf.Workloads {
		for _, b := range bf.EndToEnd {
			var va, vb []float64
			for _, r := range sets[0] {
				if r.Workload == wl.Name {
					va = append(va, r.E2E[b.Name].Median)
				}
			}
			for _, r := range sets[1] {
				if r.Workload == wl.Name {
					vb = append(vb, r.E2E[b.Name].Median)
				}
			}
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			change := (sb.Median - sa.Median) / sa.Median
			verdict := "agree"
			if math.Abs(change) >= b.Bound {
				verdict, ok = "DIFFER", false
			}
			fmt.Fprintf(stdout, "%-18s %-13s %12.6g %-20s %12.6g %-20s %+7.2f%% %5.0f%% %s (%s is better; spreads %.1f%% / %.1f%%)\n",
				wl.Name, b.Name, sa.Median, quartiles(sa), sb.Median, quartiles(sb), 100*change, 100*b.Bound,
				verdict, b.Better, 100*(sa.Q3-sa.Q1)/sa.Median, 100*(sb.Q3-sb.Q1)/sb.Median)
		}
	}
	pairs, mismatches := 0, 0
	for _, a := range sets[0] {
		for _, b := range sets[1] {
			if a.Workload != b.Workload || a.Seed != b.Seed {
				continue
			}
			pairs++
			if a.Inputs != b.Inputs {
				mismatches++
				fmt.Fprintf(stdout, "%s seed %d: inputs %s != %s\n", a.Workload, a.Seed, a.Inputs, b.Inputs)
			}
			for k, v := range a.Exact {
				if w, found := b.Exact[k]; !found || w != v {
					mismatches++
					fmt.Fprintf(stdout, "%s seed %d: %s %v != %v\n", a.Workload, a.Seed, k, v, w)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "exact counts: %d same-seed run pairs compared, %d mismatches\n", pairs, mismatches)
	if mismatches > 0 {
		ok = false
	}
	if !ok {
		return exitFail
	}
	return exitOK
}
