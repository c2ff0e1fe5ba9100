package check

import (
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
	"clustersim/internal/workload/engine"
)

// Fuzz targets drive the invariant checker over machine-configuration and
// workload-generator parameter spaces the bundled experiments never visit.
// Any crash or invariant violation found by `go test -fuzz` is minimized
// into testdata/fuzz/<Target>/ by the Go tooling; committed entries run as
// regression cases on every plain `go test`.

// fuzzConfig maps raw fuzz bytes onto a valid machine configuration. Values
// are folded into conservative ranges: the goal is exploring real
// configuration diversity, not discovering that absurd capacities (one
// register per cluster) starve the machine.
func fuzzConfig(clusters, iq, regs, lsq uint8, rob uint16, distCache, grid bool) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Clusters = 1 << (clusters % 5) // 1,2,4,8,16 (dist cache needs powers of two)
	cfg.ActiveClusters = cfg.Clusters
	cfg.IQPerCluster = 4 + int(iq%29)     // 4..32
	cfg.RegsPerCluster = 8 + int(regs%41) // 8..48
	cfg.LSQPerCluster = 8 + int(lsq%25)   // 8..32
	cfg.ROB = 64 + int(rob%449)           // 64..512
	if distCache {
		cfg.Cache = pipeline.DecentralizedCache
	}
	if grid {
		cfg.Topology = pipeline.GridTopology
	}
	return cfg
}

func fuzzBench(idx uint8) string {
	names := workload.Benchmarks()
	return names[int(idx)%len(names)]
}

// runNoPanic asserts the hardened failure contract over the fuzzed space:
// Run reports failures as errors (deadlock, stop), it never panics. Any
// panic escaping Run — or any error on these small, valid configurations —
// is a finding.
func runNoPanic(t *testing.T, p *pipeline.Processor, n uint64) pipeline.Result {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped Run: %v", r)
		}
	}()
	res, err := p.Run(n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// FuzzInvariants runs a fuzz-chosen benchmark on a fuzz-chosen machine with
// a fail-fast invariant checker attached: any violated invariant (or panic)
// is a finding.
func FuzzInvariants(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint8(4), uint8(11), uint8(22), uint8(7), uint16(416), false, false)
	f.Add(uint8(3), uint64(42), uint8(1), uint8(0), uint8(0), uint8(0), uint16(0), true, false)
	f.Add(uint8(7), uint64(99), uint8(2), uint8(28), uint8(40), uint8(24), uint16(300), true, true)
	f.Fuzz(func(t *testing.T, bench uint8, seed uint64, clusters, iq, regs, lsq uint8, rob uint16, distCache, grid bool) {
		cfg := fuzzConfig(clusters, iq, regs, lsq, rob, distCache, grid)
		chk := NewFailFast()
		cfg.Checker = chk
		p, err := pipeline.New(cfg, workload.MustNew(fuzzBench(bench), seed), nil)
		if err != nil {
			t.Skip(err)
		}
		runNoPanic(t, p, 3_000)
		if chk.CyclesChecked() == 0 {
			t.Fatal("checker never ran")
		}
	})
}

// FuzzRunDeterminism re-runs every fuzz-chosen (benchmark, seed, config)
// cell and requires byte-identical Results — the determinism oracle over the
// fuzzed configuration space — and then runs the same cell under the legacy
// per-cycle scan stepper, which must agree exactly (the fast-vs-legacy
// differential over the same space).
func FuzzRunDeterminism(f *testing.F) {
	f.Add(uint8(1), uint64(7), uint8(3), uint8(11), uint8(22), uint8(7), uint16(416), false)
	f.Add(uint8(5), uint64(123), uint8(4), uint8(5), uint8(9), uint8(14), uint16(100), true)
	f.Fuzz(func(t *testing.T, bench uint8, seed uint64, clusters, iq, regs, lsq uint8, rob uint16, distCache bool) {
		cfg := fuzzConfig(clusters, iq, regs, lsq, rob, distCache, false)
		name := fuzzBench(bench)
		run := func(c pipeline.Config) pipeline.Result {
			p, err := pipeline.New(c, workload.MustNew(name, seed), nil)
			if err != nil {
				t.Skip(err)
			}
			return runNoPanic(t, p, 2_000)
		}
		a, b := run(cfg), run(cfg)
		if a != b {
			t.Fatalf("%s seed %d not deterministic:\n  A: %+v\n  B: %+v", name, seed, a, b)
		}
		legacy := cfg
		legacy.LegacyStepper = true
		if c := run(legacy); a != c {
			t.Fatalf("%s seed %d: steppers diverge:\n  event:  %+v\n  legacy: %+v", name, seed, a, c)
		}
	})
}

// FuzzCustomWorkload fuzzes the workload generator's own parameter space
// through engine.Custom: the generated stream must be deterministic and
// must run cleanly under the invariant checker.
func FuzzCustomWorkload(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(50), uint8(30), uint8(30), uint8(40), uint8(16), uint8(20), int16(8), uint32(1<<16), false, false, false)
	f.Add(uint64(9), uint8(1), uint8(0), uint8(0), uint8(255), uint8(0), uint8(4), uint8(2), int16(-64), uint32(0), true, true, true)
	f.Add(uint64(77), uint8(32), uint8(80), uint8(80), uint8(80), uint8(255), uint8(255), uint8(255), int16(4096), uint32(1<<24), false, true, false)
	f.Fuzz(func(t *testing.T, seed uint64, chains, loadF, storeF, branchF, crossF, loopBody, loopIters uint8, stride int16, footprint uint32, fp, randomAddr, chase bool) {
		k := engine.Kernel{
			Chains:     1 + int(chains%32),
			FP:         fp,
			LoadFrac:   float64(loadF) / 512,  // <= ~0.5
			StoreFrac:  float64(storeF) / 512, // body fractions stay feasible
			BranchFrac: float64(branchF) / 512,
			CrossFrac:  float64(crossF) / 255,
			LoopBody:   int(loopBody),  // engine floors at 4
			LoopIters:  int(loopIters), // engine floors at 2
			Stride:     int64(stride),
			Footprint:  int64(footprint),
			RandomAddr: randomAddr,
			Chase:      chase,
		}
		gen, err := engine.Custom("fuzz", []engine.Phase{{Length: 10_000, Kernel: k}}, seed)
		if err != nil {
			t.Skip(err)
		}
		// Stream determinism: two generators from the same spec and seed
		// emit identical instructions.
		gen2, err := engine.Custom("fuzz", []engine.Phase{{Length: 10_000, Kernel: k}}, seed)
		if err != nil {
			t.Fatal(err)
		}
		var a, b isa.Instruction
		for i := 0; i < 2_000; i++ {
			gen.Next(&a)
			gen2.Next(&b)
			if a != b {
				t.Fatalf("instruction %d diverges: %+v vs %+v", i, a, b)
			}
		}
		// The stream must drive the machine without violating invariants.
		gen.Reset()
		cfg := pipeline.DefaultConfig()
		cfg.Clusters = 4
		cfg.ActiveClusters = 4
		chk := NewFailFast()
		cfg.Checker = chk
		p, err := pipeline.New(cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		runNoPanic(t, p, 2_000)
	})
}
