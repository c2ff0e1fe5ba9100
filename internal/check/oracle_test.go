package check

import (
	"bytes"
	"fmt"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/stats"
	"clustersim/internal/workload"
	"clustersim/internal/workload/engine"
)

// This file holds the metamorphic and differential oracles and the tests
// that run them. An oracle is a property that must hold between *pairs or
// families* of runs, checked by executing the family (through the
// internal/runner pool where the cache cannot hide a difference) and
// comparing Results. They
// complement the per-cycle invariants in check.go — an invariant catches a
// machine in an inconsistent state, an oracle catches a machine that is
// self-consistent but wrong (e.g. a seed leak that makes "identical" runs
// diverge, or a reconfiguration path that changes timing when it should be
// a no-op).

// Determinism verifies seed determinism: executing the same (benchmark,
// seed, window, config) twice, concurrently, yields byte-identical Results.
// The pair runs on its own runner with the cache disabled (a cache hit or
// an in-batch dedup would compare a Result with itself).
func Determinism(bench string, seed, window uint64, cfg pipeline.Config) error {
	r := runner.New(2)
	r.DisableCache = true
	reqs := []runner.Request{
		{ID: "determinism/a", Bench: bench, Seed: seed, Window: window, Config: cfg},
		{ID: "determinism/b", Bench: bench, Seed: seed, Window: window, Config: cfg},
	}
	res, err := r.RunAll(reqs)
	if err != nil {
		return err
	}
	if res[0] != res[1] {
		return fmt.Errorf("check: %s seed %d not deterministic:\n  run A: %+v\n  run B: %+v", bench, seed, res[0], res[1])
	}
	return nil
}

// WindowMonotonicity verifies that the realized in-flight window (peak ROB
// occupancy, measured by an attached Invariants checker) does not shrink as
// clusters are added: more clusters mean more registers and issue-queue
// slots, so the machine can only keep more instructions in flight — the
// capacity side of the paper's communication-parallelism trade-off. slack
// allows a small fractional decrease (scheduling noise changes *which*
// instructions are in flight, slightly perturbing the peak); 0 demands
// strict monotonicity. Each run is also invariant-checked.
func WindowMonotonicity(r *runner.Runner, bench string, seed, window uint64, cfg pipeline.Config, clusters []int, slack float64) error {
	chks := make([]*Invariants, len(clusters))
	reqs := make([]runner.Request, len(clusters))
	for i, n := range clusters {
		c := cfg
		c.Clusters = n
		c.ActiveClusters = n
		chks[i] = New()
		c.Checker = chks[i]
		reqs[i] = runner.Request{
			ID: fmt.Sprintf("window-mono/%d", n), Bench: bench, Seed: seed, Window: window, Config: c,
		}
	}
	if _, err := r.RunAll(reqs); err != nil {
		return err
	}
	for i, k := range chks {
		if err := k.Err(); err != nil {
			return fmt.Errorf("%d clusters: %w", clusters[i], err)
		}
	}
	for i := 1; i < len(chks); i++ {
		prev, cur := chks[i-1].PeakWindow(), chks[i].PeakWindow()
		if float64(cur) < float64(prev)*(1-slack) {
			return fmt.Errorf("check: %s peak window shrank from %d (%d clusters) to %d (%d clusters), beyond slack %.2f",
				bench, prev, clusters[i-1], cur, clusters[i], slack)
		}
	}
	return nil
}

// IntervalInvariance verifies interval-length permutation invariance of the
// phase-trace machinery: recording at base granularity and coarsening by k
// (stats.Aggregate) must match recording at base*k directly. Recorders never
// reconfigure, so both runs have identical timing; the per-interval counts
// (instructions, branches, memrefs, distant) therefore agree exactly. Cycles
// may differ slightly — a recorder's interval clock starts at the interval's
// first commit, so the coarse recording includes inter-interval commit gaps
// that the aggregated fine recording does not — bounded by cycleTol
// (fractional).
func IntervalInvariance(r *runner.Runner, bench string, seed, window uint64, cfg pipeline.Config, base uint64, k int, cycleTol float64) error {
	fine := stats.NewRecorder(base)
	coarse := stats.NewRecorder(base * uint64(k))
	reqs := []runner.Request{
		{ID: "interval-inv/fine", Bench: bench, Seed: seed, Window: window, Config: cfg, Controller: fine},
		{ID: "interval-inv/coarse", Bench: bench, Seed: seed, Window: window, Config: cfg, Controller: coarse},
	}
	if _, err := r.RunAll(reqs); err != nil {
		return err
	}
	agg := stats.Aggregate(fine.Intervals(), k)
	direct := coarse.Intervals()
	if len(agg) != len(direct) {
		return fmt.Errorf("check: %s interval traces disagree in length: %d aggregated vs %d direct", bench, len(agg), len(direct))
	}
	for i := range agg {
		a, d := agg[i], direct[i]
		if a.Instructions != d.Instructions || a.Branches != d.Branches || a.Memrefs != d.Memrefs || a.Distant != d.Distant {
			return fmt.Errorf("check: %s interval %d counts disagree:\n  aggregated: %+v\n  direct:     %+v", bench, i, a, d)
		}
		lo, hi := float64(a.Cycles)*(1-cycleTol), float64(a.Cycles)*(1+cycleTol)
		if float64(d.Cycles) < lo || float64(d.Cycles) > hi {
			return fmt.Errorf("check: %s interval %d cycles %d outside ±%.0f%% of aggregated %d",
				bench, i, d.Cycles, cycleTol*100, a.Cycles)
		}
	}
	return nil
}

// ResumeEquivalence verifies the crash-safety contract end to end: running a
// window uninterrupted, versus running to an arbitrary interior point,
// serializing the machine with SaveCheckpoint, restoring into a *freshly
// constructed* processor (as a restarted process would) and finishing there,
// must yield byte-identical Results. mkCtrl builds the run's controller (nil
// for static); a fresh instance is built per machine so no state leaks
// between the interrupted and resumed halves outside the snapshot itself.
func ResumeEquivalence(bench string, seed, window, at uint64, cfg pipeline.Config, mkCtrl func() pipeline.Controller) error {
	return ResumeEquivalenceGen(bench,
		func() (workload.Generator, error) { return workload.New(bench, seed) },
		window, at, cfg, mkCtrl)
}

// ResumeEquivalenceGen is ResumeEquivalence over an arbitrary generator
// factory — the oracle form spec-compiled and trace-replayed workloads
// use. mkGen must build a fresh, rewound generator per call (three
// machines are constructed); label names the workload in error messages.
func ResumeEquivalenceGen(label string, mkGen func() (workload.Generator, error), window, at uint64, cfg pipeline.Config, mkCtrl func() pipeline.Controller) error {
	if at == 0 || at >= window {
		return fmt.Errorf("check: ResumeEquivalence checkpoint %d outside (0,%d)", at, window)
	}
	build := func() (*pipeline.Processor, error) {
		gen, err := mkGen()
		if err != nil {
			return nil, err
		}
		var ctrl pipeline.Controller
		if mkCtrl != nil {
			ctrl = mkCtrl()
		}
		return pipeline.New(cfg, gen, ctrl)
	}

	p1, err := build()
	if err != nil {
		return err
	}
	whole, err := p1.Run(window)
	if err != nil {
		return err
	}

	p2, err := build()
	if err != nil {
		return err
	}
	if _, err := p2.Run(at); err != nil {
		return err
	}
	var snapBuf bytes.Buffer
	if err := p2.SaveCheckpoint(&snapBuf); err != nil {
		return err
	}

	p3, err := build()
	if err != nil {
		return err
	}
	if err := p3.LoadCheckpoint(bytes.NewReader(snapBuf.Bytes())); err != nil {
		return err
	}
	resumed, err := p3.Run(window - p3.Committed())
	if err != nil {
		return err
	}
	if resumed != whole {
		return fmt.Errorf("check: %s resume at %d diverges from uninterrupted run:\n  whole:   %+v\n  resumed: %+v",
			label, at, whole, resumed)
	}
	return nil
}

// StepperEquivalence is the fast-vs-legacy differential: the event-driven
// stepper (wheel wakeups, wait chains, stall fast-forward) and the seed
// per-cycle scan stepper must produce byte-identical Results on the same
// (benchmark, seed, window, config, controller) cell. This drives the
// pipeline directly rather than through the runner: Config.LegacyStepper is
// deliberately excluded from the configuration fingerprint (the steppers are
// timing-equivalent, so snapshots and cache entries are shared), which means
// the runner's result cache cannot tell the two modes apart and a cached
// comparison would be vacuous. mkCtrl builds a fresh controller per machine
// (nil for static).
func StepperEquivalence(bench string, seed, window uint64, cfg pipeline.Config, mkCtrl func() pipeline.Controller) error {
	run := func(legacy bool) (pipeline.Result, error) {
		c := cfg
		c.LegacyStepper = legacy
		gen, err := workload.New(bench, seed)
		if err != nil {
			return pipeline.Result{}, err
		}
		var ctrl pipeline.Controller
		if mkCtrl != nil {
			ctrl = mkCtrl()
		}
		p, err := pipeline.New(c, gen, ctrl)
		if err != nil {
			return pipeline.Result{}, err
		}
		return p.Run(window)
	}
	fast, err := run(false)
	if err != nil {
		return fmt.Errorf("check: %s event stepper: %w", bench, err)
	}
	legacy, err := run(true)
	if err != nil {
		return fmt.Errorf("check: %s legacy stepper: %w", bench, err)
	}
	if fast != legacy {
		return fmt.Errorf("check: %s steppers diverge:\n  event:  %+v\n  legacy: %+v", bench, fast, legacy)
	}
	return nil
}

// ChunkInvariance verifies that simulating a window in one Run call and in
// several smaller Run calls yields identical cumulative Results: Run only
// advances the machine, so how the caller slices the window cannot matter.
// This oracle drives the pipeline directly (the runner always simulates a
// window in one call).
func ChunkInvariance(bench string, seed, window uint64, cfg pipeline.Config, chunks int) error {
	if chunks < 2 {
		return fmt.Errorf("check: ChunkInvariance needs >= 2 chunks, got %d", chunks)
	}
	run := func(parts int) (pipeline.Result, error) {
		gen, err := workload.New(bench, seed)
		if err != nil {
			return pipeline.Result{}, err
		}
		p, err := pipeline.New(cfg, gen, nil)
		if err != nil {
			return pipeline.Result{}, err
		}
		// Commits overshoot (up to CommitWidth-1 past a target), so chunk
		// toward absolute targets: the chunked machine then passes through
		// exactly the states the single-call machine does.
		var res pipeline.Result
		var committed uint64
		for i := 1; i <= parts; i++ {
			next := window * uint64(i) / uint64(parts)
			if next > committed {
				res, err = p.Run(next - committed)
				if err != nil {
					return res, err
				}
				committed = res.Instructions
			}
		}
		return res, nil
	}
	whole, err := run(1)
	if err != nil {
		return err
	}
	sliced, err := run(chunks)
	if err != nil {
		return err
	}
	if whole != sliced {
		return fmt.Errorf("check: %s chunked run diverges:\n  whole:  %+v\n  %d-way: %+v", bench, whole, chunks, sliced)
	}
	return nil
}

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
