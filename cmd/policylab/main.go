// Command policylab searches reconfiguration-policy parameter space and
// emits a ranked leaderboard.
//
// Usage:
//
//	policylab -bench gzip,vpr -scale 0.1 -pop 16 -gens 3 -out results/policies
//	policylab -pop 32 -checkpoint-dir ck          # full matrix, crash-safe
//	policylab -pop 32 -checkpoint-dir ck -resume  # finish a killed search
//
// The search is a deterministic tournament (internal/policy): generation
// zero seeds the paper's controllers (§4.2 exploration, §4.3 distant-ILP,
// §4.4 fine-grain and its call/return variant) plus random
// parameterizations; each generation evaluates benchmark × candidate as one
// cacheable sweep, keeps the elites and breeds the rest by tournament
// selection with family-specific mutation. Candidates are scored on geomean
// IPC minus weighted energy-per-instruction and reconfiguration churn.
//
// Identical invocations produce identical leaderboards, and every
// evaluation is content-addressed (the spec fingerprint is part of the run
// cache key), so a rerun — or a -resume after a crash — simulates nothing
// that already completed.
//
// -out writes <prefix>.csv and <prefix>.json; without it the CSV goes to
// stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"clustersim/internal/experiments"
	"clustersim/internal/policy"
	"clustersim/internal/runner"
	"clustersim/internal/workload"
)

func main() {
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all nine)")
	scale := flag.Float64("scale", 1.0, "simulation window scale factor")
	seed := flag.Uint64("seed", 42, "search seed (candidate generation and mutation)")
	wseed := flag.Uint64("workload-seed", 1, "workload seed for every evaluation run")
	pop := flag.Int("pop", 16, "candidates per generation (minimum 4)")
	gens := flag.Int("gens", 3, "generations")
	elites := flag.Int("elites", 0, "candidates surviving unchanged per generation (0 = pop/4)")
	parallel := flag.Int("parallel", 0, "sweep worker-pool width (0 = GOMAXPROCS)")
	ckDir := flag.String("checkpoint-dir", "", "crash-safety directory: runs snapshot here and persist finished results for -resume")
	resume := flag.Bool("resume", false, "preload results persisted under -checkpoint-dir by an earlier invocation")
	out := flag.String("out", "", "output path prefix: writes <prefix>.csv and <prefix>.json (default: CSV on stdout)")
	flag.Parse()

	benchList := workload.Benchmarks()
	if *benches != "" {
		benchList = strings.Split(*benches, ",")
	}

	rn := runner.New(*parallel)
	rn.CheckpointDir = *ckDir
	persisted := 0 // results -resume read; the report after the search says how many served
	if *resume {
		if *ckDir == "" {
			fmt.Fprintln(os.Stderr, "policylab: -resume requires -checkpoint-dir")
			os.Exit(2)
		}
		n, err := rn.LoadPersisted()
		if err != nil {
			fmt.Fprintf(os.Stderr, "policylab: resume: %v\n", err)
			os.Exit(1)
		}
		persisted = n
	}

	// Windows come from the experiments package's calibrated per-benchmark
	// table, so a policylab IPC is directly comparable to the figures.
	windows := experiments.Options{Scale: *scale}

	lb, err := policy.Search(policy.SearchOptions{
		Seed:         *seed,
		Population:   *pop,
		Generations:  *gens,
		Elites:       *elites,
		Benchmarks:   benchList,
		Window:       windows.Window,
		WorkloadSeed: *wseed,
		Runner:       rn,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "policylab: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "policylab: %v\n", err)
		os.Exit(1)
	}

	if *out == "" {
		if err := lb.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "policylab: %v\n", err)
			os.Exit(1)
		}
	} else {
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "policylab: %v\n", err)
				os.Exit(1)
			}
		}
		write := func(path string, render func(f io.Writer) error) {
			f, err := os.Create(path)
			if err == nil {
				err = render(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "policylab: %v\n", err)
				os.Exit(1)
			}
		}
		write(*out+".csv", lb.WriteCSV)
		write(*out+".json", lb.WriteJSON)
		fmt.Fprintf(os.Stderr, "policylab: wrote %s.csv and %s.json\n", *out, *out)
	}

	best := lb.Entries[0]
	st := rn.Stats()
	fmt.Fprintf(os.Stderr, "policylab: %d candidates over %s; best %s (fp %016x) score %.4f geomean IPC %.4f; %d runs, %d cache hits\n",
		len(lb.Entries), strings.Join(benchList, ","), best.Spec.Name, best.Fingerprint,
		best.Aggregate.Score, best.Aggregate.IPC, st.Runs, st.CacheHits)
	if *resume {
		fmt.Fprintf(os.Stderr, "policylab: resume: %d of %d persisted result(s) read from %s served a cell, skipped %d unusable entr(ies)\n",
			st.PersistServed, persisted, *ckDir, st.PersistSkipped)
	}
}
