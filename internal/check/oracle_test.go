package check

import (
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/workload"
	"clustersim/internal/workload/engine"
)

// oracleBenches returns the benchmarks the oracle matrix covers: every
// bundled benchmark normally, a representative subset under -short.
func oracleBenches(t *testing.T) []string {
	if testing.Short() {
		return []string{"gzip", "swim", "djpeg"}
	}
	return workload.Benchmarks()
}

// TestDeterminismMatrix: same (bench, seed, config) twice => identical
// Result, at every cluster count.
func TestDeterminismMatrix(t *testing.T) {
	window := matrixWindow(t)
	for _, bench := range oracleBenches(t) {
		for _, n := range clusterMatrix {
			cfg := pipeline.DefaultConfig()
			cfg.Clusters = n
			cfg.ActiveClusters = n
			if err := Determinism(bench, 1, window, cfg); err != nil {
				t.Errorf("%s/%d clusters: %v", bench, n, err)
			}
		}
	}
}

// TestWindowMonotonicityMatrix: the realized in-flight window grows (or at
// worst stays, modulo scheduling noise) with the cluster count on every
// benchmark — the parallelism half of the paper's trade-off.
func TestWindowMonotonicityMatrix(t *testing.T) {
	window := matrixWindow(t)
	r := runner.New(0)
	for _, bench := range oracleBenches(t) {
		cfg := pipeline.DefaultConfig()
		if err := WindowMonotonicity(r, bench, 1, window, cfg, clusterMatrix, windowSlack); err != nil {
			t.Errorf("%s: %v", bench, err)
		}
	}
}

// windowSlack is the fractional peak-window decrease tolerated between
// adjacent cluster counts: adding clusters changes steering and thus *which*
// instructions are in flight at the peak, so the peak may jitter slightly
// even though capacity only grows.
const windowSlack = 0.05

// TestIntervalInvarianceMatrix: a 10K-interval trace aggregated 4x matches a
// 40K-interval trace of the identical run — count-exact, cycle-tolerant (the
// coarse recorder's interval clock spans inter-interval commit gaps the
// aggregated fine trace omits).
func TestIntervalInvarianceMatrix(t *testing.T) {
	window := matrixWindow(t) * 2
	r := runner.New(0)
	for _, bench := range oracleBenches(t) {
		cfg := pipeline.DefaultConfig()
		if err := IntervalInvariance(r, bench, 1, window, cfg, 10_000, 4, 0.10); err != nil {
			t.Errorf("%s: %v", bench, err)
		}
	}
}

// TestChunkInvarianceMatrix: slicing a window across several Run calls
// yields the identical cumulative Result.
func TestChunkInvarianceMatrix(t *testing.T) {
	window := matrixWindow(t)
	for _, bench := range oracleBenches(t) {
		cfg := pipeline.DefaultConfig()
		if err := ChunkInvariance(bench, 1, window, cfg, 7); err != nil {
			t.Errorf("%s: %v", bench, err)
		}
	}
}

func TestChunkInvarianceRejectsBadChunks(t *testing.T) {
	if err := ChunkInvariance("gzip", 1, 1_000, pipeline.DefaultConfig(), 1); err == nil {
		t.Fatal("expected an error for chunks < 2")
	}
}

// TestResumeEquivalenceMatrix: checkpoint/restore into a fresh machine is
// invisible to the simulation across every benchmark and every controller
// family — the paper-facing guarantee behind crash-safe sweeps. The
// checkpoint lands at an odd interior point so it never aligns with interval
// or basic-block boundaries.
func TestResumeEquivalenceMatrix(t *testing.T) {
	window := matrixWindow(t)
	at := window/3 + 137
	policies := []struct {
		name string
		mk   func() pipeline.Controller
	}{
		{"static", nil},
		{"explore", func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }},
		{"distant-ilp", func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{}) }},
		{"finegrain", func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }},
	}
	for _, bench := range oracleBenches(t) {
		for _, pol := range policies {
			bench, pol := bench, pol
			t.Run(bench+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				cfg := pipeline.DefaultConfig()
				if err := ResumeEquivalence(bench, 1, window, at, cfg, pol.mk); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestStepperEquivalenceMatrix: the event-driven stepper and the seed
// per-cycle scan stepper are byte-identical on every benchmark under every
// controller family — the central differential guarantee behind the fast
// cycle loop (wheel wakeups, wait chains, stall fast-forward).
func TestStepperEquivalenceMatrix(t *testing.T) {
	window := matrixWindow(t)
	policies := []struct {
		name string
		mk   func() pipeline.Controller
	}{
		{"static", nil},
		{"explore", func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }},
		{"distant-ilp", func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{}) }},
		{"finegrain", func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }},
	}
	for _, bench := range oracleBenches(t) {
		for _, pol := range policies {
			bench, pol := bench, pol
			t.Run(bench+"/"+pol.name, func(t *testing.T) {
				t.Parallel()
				cfg := pipeline.DefaultConfig()
				if err := StepperEquivalence(bench, 1, window, cfg, pol.mk); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// stepperEquivCustom is StepperEquivalence over a custom workload spec: both
// steppers run the identical generated stream and must agree byte-for-byte.
func stepperEquivCustom(t *testing.T, name string, phases []engine.Phase, window uint64, cfg pipeline.Config, mkCtrl func() pipeline.Controller) {
	t.Helper()
	run := func(legacy bool) pipeline.Result {
		c := cfg
		c.LegacyStepper = legacy
		gen, err := engine.Custom(name, phases, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ctrl pipeline.Controller
		if mkCtrl != nil {
			ctrl = mkCtrl()
		}
		p, err := pipeline.New(c, gen, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(window)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, legacy := run(false), run(true)
	if fast != legacy {
		t.Errorf("%s: steppers diverge:\n  event:  %+v\n  legacy: %+v", name, fast, legacy)
	}
}

// TestStepperEquivalenceStallHeavy: a serial pointer-chase over a footprint
// far beyond the L1 and TLB reach keeps the machine stalled on memory for
// most of its cycles — the regime where stall fast-forward jumps hardest and
// any off-by-one in the next-event computation would shift a wakeup.
func TestStepperEquivalenceStallHeavy(t *testing.T) {
	k := engine.Kernel{
		Chains:     1,
		LoadFrac:   0.45,
		StoreFrac:  0.05,
		BranchFrac: 0.05,
		LoopBody:   16,
		LoopIters:  4,
		Footprint:  1 << 26,
		RandomAddr: true,
		Chase:      true,
	}
	stepperEquivCustom(t, "stall-heavy",
		[]engine.Phase{{Length: 200_000, Kernel: k}}, 30_000,
		pipeline.DefaultConfig(), nil)
}

// thrashCtrl requests an active-cluster flip between the extremes every few
// hundred commits, keeping the machine perpetually draining or ramping — the
// reconfiguration paths (recountLSQFull, drain progress, parked-state
// migration) under maximum churn.
type thrashCtrl struct{ total, n int }

func (c *thrashCtrl) Name() string    { return "thrash" }
func (c *thrashCtrl) Reset(total int) { c.total, c.n = total, 0 }
func (c *thrashCtrl) OnCommit(ev pipeline.CommitEvent) int {
	c.n++
	if c.n%256 != 0 {
		return 0
	}
	if (c.n/256)%2 == 0 {
		return c.total
	}
	return 2
}

// TestStepperEquivalenceReconfigThrash: both steppers agree under a
// controller that thrashes the active-cluster count, on both cache models.
func TestStepperEquivalenceReconfigThrash(t *testing.T) {
	k := engine.Kernel{
		Chains:     8,
		LoadFrac:   0.25,
		StoreFrac:  0.15,
		BranchFrac: 0.10,
		CrossFrac:  0.40,
		LoopBody:   32,
		LoopIters:  8,
		Footprint:  1 << 20,
	}
	phases := []engine.Phase{{Length: 200_000, Kernel: k}}
	for _, tc := range []struct {
		name string
		cfg  pipeline.Config
	}{
		{"centralized", pipeline.DefaultConfig()},
		{"decentralized", func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Cache = pipeline.DecentralizedCache
			return c
		}()},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stepperEquivCustom(t, "reconfig-thrash", phases, 30_000, tc.cfg,
				func() pipeline.Controller { return &thrashCtrl{} })
		})
	}
}

func TestResumeEquivalenceRejectsBadCheckpointPoint(t *testing.T) {
	if err := ResumeEquivalence("gzip", 1, 1_000, 1_000, pipeline.DefaultConfig(), nil); err == nil {
		t.Fatal("expected an error for a checkpoint at/after the window")
	}
}
