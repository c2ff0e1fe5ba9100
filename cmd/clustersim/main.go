// Command clustersim runs one benchmark on one processor configuration and
// prints the run statistics.
//
// Usage:
//
//	clustersim -bench gzip -policy explore -n 1000000
//	clustersim -bench swim -policy static-8 -cache dist -topo grid
//	clustersim -bench gzip -policy specs/policy/dilp-1k.json  # policy spec file
//	clustersim -bench gzip -trace out.jsonl -metrics m.json
//	clustersim -bench gzip -trace gzip.trace -trace-format chrome
//	clustersim -bench parser -n 100000000 -serve :8080 -pprof
//	clustersim -bench gzip -phases   # wall-clock phase attribution table
//	clustersim -bench gzip -legacy-stepper   # seed per-cycle scan stepper
//	clustersim -bench gzip -check    # validate cycle-level invariants
//	clustersim -spec specs/gzip.json -n 1000000       # declarative workload
//	clustersim -bench gzip -record-trace gzip.ctrace  # record, then exit
//	clustersim -replay-trace gzip.ctrace -n 1000000   # replay a recording
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"clustersim"
	"clustersim/internal/policy"
)

func main() {
	bench := flag.String("bench", "gzip", "benchmark name (-list to enumerate)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	policyName := flag.String("policy", "explore", "explore | distant-ilp | fine-grain | fine-grain-cr | static-N, or a policy spec file (.json)")
	n := flag.Uint64("n", 1_000_000, "instructions to simulate")
	seed := flag.Uint64("seed", 1, "workload seed")
	cache := flag.String("cache", "central", "central | dist")
	topo := flag.String("topo", "ring", "ring | grid")
	trace := flag.String("trace", "", "write a structured event trace to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace file format: jsonl | chrome")
	metrics := flag.String("metrics", "", "write a metrics snapshot (JSON) to this file")
	sample := flag.Uint64("sample", 10_000, "probe sampling period in cycles (0 disables)")
	serve := flag.String("serve", "", "serve live metrics over HTTP on this address (e.g. :8080)")
	servePprof := flag.Bool("pprof", false, "with -serve, also expose Go profiling endpoints under /debug/pprof/")
	phases := flag.Bool("phases", false, "attribute simulator wall time to pipeline phases and print the table")
	phaseSample := flag.Uint64("phase-sample", 0, "phase-attribution sampling period in cycles (0 = default, 1 in 64)")
	checkInv := flag.Bool("check", false, "validate cycle-level invariants during the run (exit 1 on violation)")
	legacyStepper := flag.Bool("legacy-stepper", false, "use the per-cycle scan stepper instead of the event-driven one (differential oracle / perf baseline)")
	specFile := flag.String("spec", "", "run a declarative workload spec (JSON file) instead of -bench")
	recordTrace := flag.String("record-trace", "", "record the workload's instruction stream (n + headroom instructions) to this file and exit without simulating")
	replayTrace := flag.String("replay-trace", "", "replay a recorded instruction stream instead of generating one")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(clustersim.Benchmarks(), "\n"))
		return
	}

	// buildGen constructs the live workload (-spec, else -bench) and the
	// identity a recording of it would carry.
	buildGen := func() (clustersim.Generator, clustersim.TraceMeta, error) {
		if *specFile != "" {
			s, err := clustersim.LoadWorkloadSpec(*specFile)
			if err != nil {
				return nil, clustersim.TraceMeta{}, err
			}
			gen, err := clustersim.CompileWorkloadSpec(s, *seed)
			if err != nil {
				return nil, clustersim.TraceMeta{}, err
			}
			fp, err := s.Fingerprint()
			if err != nil {
				return nil, clustersim.TraceMeta{}, err
			}
			return gen, clustersim.TraceMeta{
				Name: s.Name, SourceKind: clustersim.TraceSourceSpec,
				SourceID: s.Name, SourceFP: fp, Seed: *seed,
			}, nil
		}
		gen, err := clustersim.NewWorkload(*bench, *seed)
		if err != nil {
			return nil, clustersim.TraceMeta{}, err
		}
		return gen, clustersim.TraceMeta{
			Name: *bench, SourceKind: clustersim.TraceSourceBench,
			SourceID: *bench, Seed: *seed,
		}, nil
	}

	if *recordTrace != "" {
		if *replayTrace != "" {
			fatal("-record-trace and -replay-trace are mutually exclusive")
		}
		gen, meta, err := buildGen()
		if err != nil {
			fatal("%v", err)
		}
		// Record past -n so the same file replays under any policy: deeper
		// fetch-ahead consumes more of the stream than the commit window.
		h, err := clustersim.RecordTraceFile(*recordTrace, gen, *n+clustersim.DefaultTraceHeadroom, meta)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", h.Count, meta.Name, *recordTrace)
		return
	}

	cfg := clustersim.DefaultConfig()
	cfg.LegacyStepper = *legacyStepper
	switch *cache {
	case "central":
	case "dist":
		cfg.Cache = clustersim.DecentralizedCache
	default:
		fatal("unknown -cache %q", *cache)
	}
	switch *topo {
	case "ring":
	case "grid":
		cfg.Topology = clustersim.GridTopology
	default:
		fatal("unknown -topo %q", *topo)
	}

	loadPolicy := policy.Paper
	if strings.HasSuffix(*policyName, ".json") {
		loadPolicy = policy.LoadFile
	}
	spec, err := loadPolicy(*policyName)
	if err != nil {
		fatal("%v", err)
	}
	cfg, ctrl, _, err := spec.Instantiate(cfg)
	if err != nil {
		fatal("%v", err)
	}

	// Observability: any of -trace, -metrics or -serve attaches an
	// observer; without them the simulation runs uninstrumented. Output
	// files are created up front so a bad path fails before a long run,
	// not after it.
	var ob *clustersim.Observer
	var closeTrace func() error
	var metricsFile *os.File
	if *trace != "" || *metrics != "" || *serve != "" {
		ob = &clustersim.Observer{SamplePeriod: *sample}
		if *metrics != "" || *serve != "" {
			ob.Registry = clustersim.NewMetricsRegistry()
		}
		if *metrics != "" {
			f, err := os.Create(*metrics)
			if err != nil {
				fatal("%v", err)
			}
			metricsFile = f
		}
		if *trace != "" {
			if *traceFormat != "jsonl" && *traceFormat != "chrome" {
				fatal("unknown -trace-format %q", *traceFormat)
			}
			f, err := os.Create(*trace)
			if err != nil {
				fatal("%v", err)
			}
			if *traceFormat == "jsonl" {
				s := clustersim.NewJSONLSink(f)
				ob.Tracer, closeTrace = s, s.Close
			} else {
				s := clustersim.NewChromeSink(f)
				ob.Tracer, closeTrace = s, s.Close
			}
		}
		if *serve != "" {
			endpoints := "/metrics, /metrics.csv, /debug/vars"
			if *servePprof {
				endpoints += ", /debug/pprof/"
			}
			addr, closeServe, err := clustersim.ServeMetrics(*serve, ob.Registry, *servePprof)
			if err != nil {
				fatal("%v", err)
			}
			defer closeServe()
			// A served registry also reports the simulator process's own
			// runtime health alongside the simulated machine.
			stopSampler := clustersim.StartRuntimeSampler(ob.Registry, 0)
			defer stopSampler()
			fmt.Fprintf(os.Stderr, "serving metrics on %s (%s)\n", addr, endpoints)
		}
		cfg.Observer = ob
	}

	var ptimer *clustersim.PhaseTimer
	if *phases {
		ptimer = clustersim.NewPhaseTimer(*phaseSample)
		cfg.Phases = ptimer
	}

	var chk *clustersim.InvariantChecker
	if *checkInv {
		chk = clustersim.NewInvariantChecker()
		cfg.Checker = chk
	}

	var res clustersim.Result
	if *specFile != "" || *replayTrace != "" {
		var gen clustersim.Generator
		if *replayTrace != "" {
			t, terr := clustersim.ReadPackedTraceFile(*replayTrace)
			if terr != nil {
				fatal("%v", terr)
			}
			gen = t.Replayer()
		} else if gen, _, err = buildGen(); err != nil {
			fatal("%v", err)
		}
		p, perr := clustersim.NewProcessor(cfg, gen, ctrl)
		if perr != nil {
			fatal("%v", perr)
		}
		res, err = runDirect(p, *n)
	} else {
		res, err = clustersim.Run(*bench, *seed, cfg, ctrl, *n)
	}
	if err != nil {
		fatal("%v", err)
	}

	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			fatal("closing trace: %v", err)
		}
	}
	if metricsFile != nil {
		if err := ob.Registry.Snapshot().WriteJSON(metricsFile); err != nil {
			fatal("writing metrics: %v", err)
		}
		if err := metricsFile.Close(); err != nil {
			fatal("closing metrics: %v", err)
		}
	}

	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("policy           %s\n", res.Policy)
	fmt.Printf("instructions     %d\n", res.Instructions)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("IPC              %.3f\n", res.IPC())
	fmt.Printf("avg clusters     %.2f of %d\n", res.AvgActiveClusters(), cfg.Clusters)
	fmt.Printf("reconfigs        %d (%.1f/M instrs)\n", res.Reconfigs, res.ReconfigsPerMInstr())
	fmt.Printf("mispred interval %.0f instructions\n", res.MispredictInterval())
	fmt.Printf("reg transfers    %d (avg %.1f cycles)\n", res.RegTransfers, res.AvgRegCommLatency())
	fmt.Printf("L1 miss rate     %.3f\n", res.Mem.L1MissRate())
	fmt.Printf("distant issued   %d (%.0f/1K instrs)\n", res.DistantIssued,
		1000*float64(res.DistantIssued)/float64(res.Instructions))
	fmt.Printf("distant fraction %.2f of commits\n", res.DistantILPFraction())
	if cfg.Cache == clustersim.DecentralizedCache {
		fmt.Printf("bank mispredicts %d\n", res.BankMispredicts)
		fmt.Printf("flush writebacks %d (%d flushes)\n", res.Mem.FlushWritebacks, res.Mem.Flushes)
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "clustersim: invariant check FAILED:\n%v\n", err)
			os.Exit(1)
		}
		fmt.Printf("invariants       ok (%d cycles checked)\n", chk.CyclesChecked())
	}
	if ptimer != nil {
		fmt.Print(ptimer.Report().Table())
	}
}

// runDirect drives an explicitly constructed processor (spec or replay
// workloads). A replayer that runs off the end of its recording panics with
// a typed error the sweep runner would recover per-run; here the process IS
// the run, so recover it into an ordinary CLI failure.
func runDirect(p *clustersim.Processor, n uint64) (res clustersim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			ex, ok := r.(*clustersim.TraceExhaustedError)
			if !ok {
				panic(r)
			}
			err = ex
		}
	}()
	return p.Run(n)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "clustersim: "+format+"\n", args...)
	os.Exit(2)
}
