// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig3,fig5 -scale 0.5 -bench gzip,swim
//	experiments -run all -parallel 8
//	experiments -run fig5 -spec specs/phase-thrash.json -bench phase-thrash
//	experiments -record-trace traces && experiments -run all -replay-trace traces
//	experiments -run policy,counterfactual -policy-spec specs/policy/dilp-1k.json,specs/policy/fg-window540.json
//
// Each experiment prints an aligned table whose rows/series correspond to
// the paper artifact named by its ID (see -list). EXPERIMENTS.md records
// the paper-vs-measured comparison for a full -scale 1 run.
//
// Sweeps execute on a worker pool (-parallel, default GOMAXPROCS) behind a
// content-addressed run cache shared by all experiments of one invocation;
// results are bit-identical at any -parallel width.
//
// # Crash safety
//
// With -checkpoint-dir set, every cacheable run snapshots its machine state
// to <dir>/<fingerprint>.snap every -checkpoint-every committed instructions
// and persists its finished Result to <dir>/results/<fingerprint>.json. A
// killed sweep is picked up with -resume: persisted results preload the run
// cache (finished cells are never re-simulated) and interrupted cells resume
// mid-run from their snapshots. Resumed output is bit-identical to an
// uninterrupted invocation.
//
// Individual run failures (panics, watchdog deadlocks, -timeout expiries) no
// longer abort a sweep: the experiment prints a partial table with "-" in the
// failed cells, and every failure — with its stack or machine-state dump — is
// written to the failure manifest (-manifest, default
// <checkpoint-dir>/failures.json) and summarized on stderr. -timeout bounds
// each run's wall-clock time, retried -retries times with backoff (a retry
// resumes from the run's last snapshot when checkpointing is on).
//
// # Telemetry
//
// -progress streams JSONL progress events (one per resolved run, with live
// completed/total counts and an EWMA-based ETA) to a file or stderr ('-').
// -serve exposes live sweep gauges (inflight runs, queue depth, worker
// utilization, cache hit rate) plus the Go runtime's own health metrics over
// HTTP while experiments run; -pprof adds the /debug/pprof/ endpoints.
// -profile-dir captures whole-invocation CPU and heap pprof profiles.
// -phase-profile attributes the sweep's wall-clock time to pipeline stages
// (commit, reconfig, issue, mem, dispatch, fetch, observe) by sampling, and
// prints the attribution table on stderr. All of it is attribution-only:
// simulation results are bit-identical with telemetry on or off.
//
// Exit status: 0 all runs succeeded; 1 an experiment produced no output;
// 2 usage error; 3 every experiment printed, but some cells failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clustersim/internal/experiments"
	"clustersim/internal/obs"
	"clustersim/internal/policy"
	"clustersim/internal/runner"
	"clustersim/internal/spec"
	"clustersim/internal/telemetry"
)

func main() {
	runIDs := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	seed := flag.Uint64("seed", 1, "workload seed")
	scale := flag.Float64("scale", 1.0, "simulation window scale factor")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
	format := flag.String("format", "text", "output format: text | chart | csv")
	obsDir := flag.String("obs", "", "write per-run time-series CSVs and metrics snapshots under this directory (e.g. results/obs)")
	obsSample := flag.Uint64("obs-sample", 0, "probe sampling period in cycles for -obs (0 = 10K)")
	parallel := flag.Int("parallel", 0, "sweep worker-pool width (0 = GOMAXPROCS)")
	noCache := flag.Bool("no-cache", false, "disable the run cache (every sweep cell simulates)")
	checkInv := flag.Bool("check", false, "validate cycle-level invariants on every run (first violation aborts the sweep)")
	ckDir := flag.String("checkpoint-dir", "", "crash-safety directory: runs snapshot here and persist finished results for -resume")
	ckEvery := flag.Uint64("checkpoint-every", 500_000, "instructions between mid-run snapshots when -checkpoint-dir is set (0 = only resume/cleanup)")
	resume := flag.Bool("resume", false, "preload results persisted under -checkpoint-dir by an earlier (possibly killed) invocation")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per run attempt (0 = unlimited); expiry is a transient, retryable failure")
	retries := flag.Int("retries", 0, "extra attempts for transient (timed-out) runs")
	manifest := flag.String("manifest", "", "failure-manifest path (default <checkpoint-dir>/failures.json; empty without -checkpoint-dir)")
	progress := flag.String("progress", "", "stream JSONL progress events (with EWMA ETA) to this file, or '-' for stderr")
	profileDir := flag.String("profile-dir", "", "capture whole-invocation CPU and heap pprof profiles under this directory")
	phaseProfile := flag.Bool("phase-profile", false, "attribute sweep wall time to pipeline phases and print the table on stderr")
	phaseSample := flag.Uint64("phase-sample", 0, "phase-attribution sampling period in cycles (0 = default, 1 in 64)")
	serve := flag.String("serve", "", "serve live sweep metrics over HTTP on this address while experiments run")
	servePprof := flag.Bool("pprof", false, "with -serve, also expose Go profiling endpoints under /debug/pprof/")
	specFiles := flag.String("spec", "", "comma-separated declarative workload spec files to add to the benchmark set")
	policySpecs := flag.String("policy-spec", "", "comma-separated policy spec files for the policy/counterfactual experiments (first = counterfactual base)")
	cfK := flag.Int("counterfactual-k", 0, "alternative policies replayed per decision trace in the counterfactual experiment (0 = 3)")
	recordTraceDir := flag.String("record-trace", "", "record every workload's instruction stream under this directory and exit without running experiments")
	replayTraceDir := flag.String("replay-trace", "", "replay recorded instruction streams from this directory instead of generating workloads")
	flag.Parse()

	reg := experiments.Registry()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *runIDs == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*runIDs, ",")
	}

	// One runner for the whole invocation: experiments share its worker
	// pool and run cache, so configurations repeated between figures
	// (e.g. the static baselines) simulate exactly once.
	rn := runner.New(*parallel)
	rn.DisableCache = *noCache
	rn.Timeout = *timeout
	rn.Retries = *retries
	rn.CheckpointDir = *ckDir
	if *ckDir != "" {
		rn.CheckpointEvery = *ckEvery
	}

	// Sweep telemetry: any of -progress, -serve or -profile-dir instruments
	// the runner. Attribution never feeds back into simulation: results are
	// bit-identical with telemetry on or off.
	var progressW *telemetry.ProgressWriter
	if *progress != "" {
		// Wrapping stderr hides its Closer so ProgressWriter.Close never
		// closes the process's stderr; a real file is passed as-is and
		// closed properly.
		var w io.Writer = struct{ io.Writer }{os.Stderr}
		if *progress != "-" {
			f, err := os.Create(*progress)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: progress: %v\n", err)
				os.Exit(2)
			}
			w = f
		}
		progressW = telemetry.NewProgressWriter(w)
		defer progressW.Close()
	}
	var sweepReg *obs.Registry
	if *serve != "" {
		sweepReg = obs.NewRegistry()
		endpoints := "/metrics, /metrics.csv, /debug/vars"
		if *servePprof {
			endpoints += ", /debug/pprof/"
		}
		addr, closeServe, err := obs.Serve(*serve, sweepReg, *servePprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		defer closeServe()
		stopSampler := telemetry.StartRuntimeSampler(sweepReg, 0)
		defer stopSampler()
		fmt.Fprintf(os.Stderr, "experiments: serving sweep metrics on %s (%s)\n", addr, endpoints)
	}
	if progressW != nil || sweepReg != nil {
		rn.Meter = telemetry.NewSweepMeter(sweepReg, progressW)
	}
	if *profileDir != "" {
		stopProfiles, err := telemetry.StartProfiles(*profileDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			if err := stopProfiles(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: profiles: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote cpu.pprof and heap.pprof under %s\n", *profileDir)
		}()
	}
	var ptimer *telemetry.PhaseTimer
	if *phaseProfile {
		ptimer = telemetry.NewPhaseTimer(*phaseSample)
	}
	persisted := 0 // results -resume read; the report after the sweep says how many served
	if *resume {
		if *ckDir == "" {
			fmt.Fprintln(os.Stderr, "experiments: -resume requires -checkpoint-dir")
			os.Exit(2)
		}
		n, err := rn.LoadPersisted()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: resume: %v\n", err)
			os.Exit(1)
		}
		persisted = n
	}
	opts := experiments.Options{
		Seed: *seed, Scale: *scale,
		ObsDir: *obsDir, ObsSamplePeriod: *obsSample,
		Runner: rn, Check: *checkInv,
		Phases: ptimer,
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	if *specFiles != "" {
		opts.Specs = make(map[string]*spec.Spec)
		for _, path := range strings.Split(*specFiles, ",") {
			s, err := spec.LoadFile(strings.TrimSpace(path))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(2)
			}
			if len(s.Mix) > 0 {
				fmt.Fprintf(os.Stderr, "experiments: spec %s is a multi-programmed mix; sweeps take single-program specs (run mixes through the SMT API)\n", s.Name)
				os.Exit(2)
			}
			if _, dup := opts.Specs[s.Name]; dup {
				fmt.Fprintf(os.Stderr, "experiments: duplicate spec name %q\n", s.Name)
				os.Exit(2)
			}
			opts.Specs[s.Name] = s
		}
	}
	if *policySpecs != "" {
		for _, path := range strings.Split(*policySpecs, ",") {
			s, err := policy.LoadFile(strings.TrimSpace(path))
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(2)
			}
			opts.PolicySpecs = append(opts.PolicySpecs, s)
		}
	}
	opts.CounterfactualK = *cfK
	if *recordTraceDir != "" {
		n, err := experiments.RecordTraces(opts, *recordTraceDir, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: record-trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: recorded %d trace(s) under %s\n", n, *recordTraceDir)
		return
	}
	if *replayTraceDir != "" {
		opts.ReplayTraceDir = *replayTraceDir
		opts.TraceCache = experiments.NewTraceCache()
	}

	var failed, partial []string
	var allFailures []runner.RunError
	var failTotal int
	for _, id := range ids {
		id = strings.TrimSpace(id)
		driver, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		table, err := driver(opts)
		if err != nil {
			var se *runner.SweepError
			if errors.As(err, &se) {
				allFailures = append(allFailures, se.Failures...)
				failTotal += se.Total
			}
			if table == nil || se == nil {
				fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", id, err)
				failed = append(failed, id)
				continue
			}
			// Salvaged sweep: the successful cells still render; the
			// failed ones show "-" and land in the failure manifest.
			partial = append(partial, id)
			fmt.Fprintf(os.Stderr, "experiments: %s: %d of %d runs failed (first: %v); printing the partial table\n",
				id, len(se.Failures), se.Total, se.Failures[0])
		}
		switch *format {
		case "chart":
			fmt.Println(table.Chart())
		case "csv":
			fmt.Print(table.CSV())
		default:
			fmt.Println(table.Format())
		}
		if *format != "csv" {
			fmt.Printf("(%s completed in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
	}

	st := rn.Stats()
	fmt.Fprintf(os.Stderr, "experiments: %d simulator runs, %d cache hits, %d deduped\n",
		st.Runs, st.CacheHits, st.Deduped)
	if *resume {
		fmt.Fprintf(os.Stderr, "experiments: resume: %d of %d persisted result(s) read from %s served a cell, skipped %d unusable entr(ies)\n",
			st.PersistServed, persisted, *ckDir, st.PersistSkipped)
	}
	if ptimer != nil {
		fmt.Fprint(os.Stderr, ptimer.Report().Table())
	}
	if *obsDir != "" {
		writeAggregate(*obsDir, rn)
	}
	writeManifest(*manifest, *ckDir, allFailures, failTotal)
	switch {
	case len(failed) > 0:
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	case len(partial) > 0:
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) incomplete: %s\n",
			len(partial), strings.Join(partial, ", "))
		os.Exit(3)
	}
}

// writeManifest records every failed run of the invocation as JSON for
// post-mortems, at the explicit -manifest path or (by default) under the
// checkpoint directory. No failures, or nowhere to write, writes nothing.
func writeManifest(path, ckDir string, failures []runner.RunError, total int) {
	if len(failures) == 0 {
		return
	}
	if path == "" {
		if ckDir == "" {
			return
		}
		path = filepath.Join(ckDir, "failures.json")
	}
	se := &runner.SweepError{Failures: failures, Total: total}
	if err := se.WriteManifest(path); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: failure manifest: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: %d failure(s) recorded in %s\n", len(failures), path)
}

// writeAggregate exports the merged metrics snapshot over every observed run
// of the invocation.
func writeAggregate(dir string, rn *runner.Runner) {
	snap, runs := rn.AggregateSnapshot()
	if runs == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: obs dir: %v\n", err)
		return
	}
	path := filepath.Join(dir, "aggregate.metrics.json")
	f, err := os.Create(path)
	if err == nil {
		err = snap.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: aggregate export: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: merged metrics of %d observed runs -> %s\n", runs, path)
}
