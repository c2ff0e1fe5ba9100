// Command clusterbench is the simulator's benchmark. One invocation sets up
// one seeded workload, runs an untimed reference rep, then repeats timed reps
// of identical fixed work for --seconds, checks every output against the
// reference, and prints the end-to-end metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 4.41, "unit": "s"}, ...}}
//
// With --trace 1 it adds one traced rep after the timed ones and prints the
// per-layer metrics instead. The program is driven only through its public
// Go functions (experiments drivers, runner, pipeline, spec, trace). Usage:
//
//	bash bench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload hot-loop --trace 1 --trace-out hot.json
//	bash bench/run.sh --workload spec-replay --record set-a.jsonl
//	bash bench/run.sh --compare set-a.jsonl set-b.jsonl
//
// See bench/README.md for the workloads, the metrics and the protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes.
const (
	exitOK    = 0
	exitFail  = 1 // a correctness check failed, or -compare found a disagreement
	exitUsage = 2 // bad flags, or the workload could not be set up or run
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so work moved into set-up shows without one slow mkdir deciding it.
// The first set-up runs on cold caches and is the slowest; five keep it and
// one other outlier out of the median.
const setupReps = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	record   string
	root     string
	size     size
	// corruptRef flips a bit of the reference digest before the timed
	// reps, so a test can prove that a digest mismatch counts as a failure.
	corruptRef bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clusterbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSize}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed, passed as experiments.Options.Seed (seed 7 is held out for checking claims)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "repeat timed reps until this many seconds are measured (at least one rep)")
	traceMode := fs.Int("trace", 0, "1 adds a traced rep and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1, write the traced rep's spans to this Chrome trace `file`")
	fs.StringVar(&cfg.record, "record", "", "append the run's full record (samples, all layer metrics, exact counts) to this JSONL `file`")
	fs.StringVar(&cfg.root, "root", ".", "repository root `directory` holding specs/ and BENCHMARK.json")
	compare := fs.Bool("compare", false, "compare the two record files given as arguments instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *compare {
		return compareSets(cfg.root, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "clusterbench: unexpected arguments %q\n", fs.Args())
		return exitUsage
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "clusterbench: --workload must be one of %s\n", strings.Join(workloadNames(), ", "))
		return exitUsage
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "clusterbench: --trace must be 0 or 1\n")
		return exitUsage
	}
	cfg.trace = *traceMode == 1
	if cfg.seed == 0 || cfg.seconds < 0 || math.IsNaN(cfg.seconds) {
		fmt.Fprintf(stderr, "clusterbench: --seed must be positive and --seconds non-negative\n")
		return exitUsage
	}
	bf, err := loadBenchmarkFile(cfg.root)
	if err != nil {
		fmt.Fprintf(stderr, "clusterbench: %v\n", err)
		return exitUsage
	}

	rec, err := measure(cfg, bf, w, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "clusterbench: %s: %v\n", cfg.workload, err)
		return exitUsage
	}
	if cfg.record != "" {
		if err := appendRecord(cfg.record, rec); err != nil {
			fmt.Fprintf(stderr, "clusterbench: %v\n", err)
			return exitUsage
		}
	}
	l, err := resultLine(rec, bf)
	if err != nil {
		fmt.Fprintf(stderr, "clusterbench: %v\n", err)
		return exitUsage
	}
	line, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintf(stderr, "clusterbench: %v\n", err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return exitFail
	}
	return exitOK
}

// measure runs the whole protocol for one workload: set-up (repeated), the
// reference rep, the timed reps and, with cfg.trace, the traced rep. It
// prints a human-readable report of the metrics bf declares to out and
// returns the run's record.
func measure(cfg config, bf *benchmarkFile, w *workloadDef, out io.Writer) (*record, error) {
	work := filepath.Join(cfg.root, "bench", ".work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		root:    cfg.root,
		seed:    cfg.seed,
		size:    cfg.size,
		workers: runtime.GOMAXPROCS(0),
		layers:  map[string]float64{},
	}
	chk := &checks{}

	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		sdir, err := os.MkdirTemp(dir, "setup-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		inst, err = w.setup(e, sdir)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < setupReps-1 {
			if err := os.RemoveAll(sdir); err != nil {
				return nil, err
			}
		}
	}

	ref := newRep(e, chk, true)
	if err := inst.rep(ref); err != nil {
		return nil, fmt.Errorf("reference rep: %w", err)
	}
	ref.finish()
	refDigest := ref.digest()
	if cfg.corruptRef {
		refDigest ^= 1
	}

	var walls []float64
	var instrs uint64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < cfg.seconds {
		runtime.GC()
		rc := newRep(e, chk, false)
		t0 := time.Now()
		if err := inst.rep(rc); err != nil {
			return nil, fmt.Errorf("timed rep %d: %w", len(walls)+1, err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		rc.finish()
		chk.expect(rc.digest() == refDigest, "timed rep %d: digest %016x differs from the reference %016x", len(walls), rc.digest(), refDigest)
		instrs = rc.instrs
	}

	rec := &record{
		Workload: w.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Inputs:   fmt.Sprintf("%016x", e.inputs),
		Workers:  e.workers,
		E2E:      map[string]summary{},
		Layers:   map[string]float64{},
		Exact:    exactCounts(ref.counted),
	}
	rec.E2E["setup_s"] = summarize(setups)
	rec.E2E["wall_s"] = summarize(walls)
	wall := rec.E2E["wall_s"].Median
	perRep := make([]float64, len(walls))
	for i, w := range walls {
		perRep[i] = float64(instrs) / 1e6 / w
	}
	// Throughput is the fixed work over the median wall time, so it moves
	// exactly opposite to wall_s; the samples are per rep.
	thr := summarize(perRep)
	thr.Median = float64(instrs) / 1e6 / wall
	rec.E2E["minstr_per_s"] = thr

	if cfg.trace {
		tr, err := tracedRep(cfg, e, chk, inst, refDigest, rec.Exact, wall)
		if err != nil {
			return nil, err
		}
		for k, v := range tr.layers {
			rec.Layers[k] = v
		}
		rec.SelfTimes = tr.self
		rec.TraceOverhead = tr.overhead
	}
	for k, v := range e.layers {
		rec.Layers[k] = v
		// Byte sizes of recorded traces and snapshots are exact counts too.
		if strings.HasSuffix(k, ".bytes") {
			rec.Exact[k] = v
		}
	}
	for k, v := range rec.Exact {
		rec.Layers[k] = v
	}

	// The whole process's peak: the maximum over set-up and every rep is
	// steadier than any one rep's, whose peak depends on when the
	// collector happened to run.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec.E2E["peak_rss_mb"] = summarize([]float64{rss})
	rec.Attempted, rec.Failed, rec.Failures = chk.attempted, chk.failed, chk.failures
	rec.FailRatio = float64(chk.failed) / float64(max(chk.attempted, 1))
	rec.Correct = chk.failed == 0
	report(out, rec, bf)
	return rec, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb needs /proc/self/status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
