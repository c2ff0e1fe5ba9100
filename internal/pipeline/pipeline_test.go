package pipeline

import (
	"bytes"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/workload"
)

func testConfig() Config {
	cfg := DefaultConfig()
	return cfg
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.Clusters = MaxClusters + 1 },
		func(c *Config) { c.ActiveClusters = 0 },
		func(c *Config) { c.ActiveClusters = c.Clusters + 1 },
		func(c *Config) { c.IQPerCluster = 0 },
		func(c *Config) { c.RegsPerCluster = -1 },
		func(c *Config) { c.ROB = 0 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.HopLatency = 0 },
		func(c *Config) { c.Steering = SteerModN; c.ModN = 0 },
		func(c *Config) { c.ImbalanceThreshold = 0 },
		func(c *Config) { c.Cache = DecentralizedCache; c.ActiveClusters = 3 },
		func(c *Config) { c.Cache = DecentralizedCache; c.Clusters, c.ActiveClusters = 12, 8 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Only the decentralized cache interleaves by masking.
	central := DefaultConfig()
	central.Clusters, central.ActiveClusters = 12, 3
	if err := central.Validate(); err != nil {
		t.Errorf("centralized 3-of-12 machine rejected: %v", err)
	}
}

// TestPolicyLabel: a run is labelled by its controller's Name, or static-N
// without one, in its Result and its snapshot header alike.
func TestPolicyLabel(t *testing.T) {
	cfg := testConfig()
	cfg.ActiveClusters = 4
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	if got := mustRun(t, p, 1_000).Policy; got != "static-4" {
		t.Errorf("controller-less label %q, want static-4", got)
	}
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("static-4")) {
		t.Error("snapshot header does not carry the static-4 label")
	}
	if got := PolicyName(&holdController{}, 4); got != "hold" {
		t.Errorf("PolicyName with a controller = %q, want hold", got)
	}
}

// holdController keeps requesting the same active-cluster count.
type holdController struct{ n int }

func (h *holdController) Name() string             { return "hold" }
func (h *holdController) Reset(int)                {}
func (h *holdController) OnCommit(CommitEvent) int { return h.n }

// TestHoldingActiveCountIsNoOp: a controller that keeps requesting the
// machine's current active-cluster count is a cycle-for-cycle no-op on both
// caches. smt's allotment controller relies on it between repartitions.
func TestHoldingActiveCountIsNoOp(t *testing.T) {
	for _, cache := range []CacheModel{CentralizedCache, DecentralizedCache} {
		for _, n := range []int{2, 4, 16} {
			cfg := testConfig()
			cfg.Cache, cfg.ActiveClusters = cache, n
			bare := mustRun(t, MustNew(cfg, workload.MustNew("swim", 1), nil), 20_000)
			held := mustRun(t, MustNew(cfg, workload.MustNew("swim", 1), &holdController{n: n}), 20_000)
			held.Policy = bare.Policy
			if held != bare {
				t.Errorf("cache %d, %d clusters: holding the count changed the run:\n  bare: %+v\n  held: %+v", cache, n, bare, held)
			}
		}
	}
}

func TestNewRejectsNilGenerator(t *testing.T) {
	if _, err := New(DefaultConfig(), nil, nil); err == nil {
		t.Fatal("nil generator accepted")
	}
}

func TestRunProgress(t *testing.T) {
	p := MustNew(testConfig(), workload.MustNew("gzip", 1), nil)
	r := mustRun(t, p, 20_000)
	if r.Instructions < 20_000 {
		t.Fatalf("committed %d < requested", r.Instructions)
	}
	if r.Cycles == 0 || r.IPC() <= 0 {
		t.Fatalf("no progress: %+v", r)
	}
	// Run extends cumulatively.
	r2 := mustRun(t, p, 10_000)
	if r2.Instructions < 30_000 || r2.Cycles <= r.Cycles {
		t.Fatalf("second Run did not extend: %d instrs %d cycles", r2.Instructions, r2.Cycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		p := MustNew(testConfig(), workload.MustNew("crafty", 9), nil)
		return mustRun(t, p, 30_000)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestIPCWithinMachineBounds(t *testing.T) {
	for _, name := range []string{"gzip", "swim"} {
		p := MustNew(testConfig(), workload.MustNew(name, 1), nil)
		r := mustRun(t, p, 50_000)
		if ipc := r.IPC(); ipc <= 0 || ipc > float64(p.cfg.CommitWidth) {
			t.Errorf("%s: IPC %f outside (0, commit width]", name, ipc)
		}
	}
}

func TestMonolithicBeatsClustered(t *testing.T) {
	// The monolithic machine has the 16-cluster machine's resources and
	// no communication costs: it must be at least as fast.
	for _, name := range []string{"swim", "vpr"} {
		pm := MustNew(MonolithicConfig(), workload.MustNew(name, 1), nil)
		rm := mustRun(t, pm, 60_000)
		pc := MustNew(testConfig(), workload.MustNew(name, 1), nil)
		rc := mustRun(t, pc, 60_000)
		if rm.IPC() < rc.IPC()*0.98 {
			t.Errorf("%s: monolithic %.3f < clustered %.3f", name, rm.IPC(), rc.IPC())
		}
	}
}

func TestActiveClustersBoundSteering(t *testing.T) {
	cfg := testConfig()
	cfg.ActiveClusters = 4
	p := MustNew(cfg, workload.MustNew("swim", 1), nil)
	mustRun(t, p, 20_000)
	for c := 4; c < cfg.Clusters; c++ {
		cs := &p.clusters[c]
		if cs.occupancy() != 0 || cs.intRegs != 0 || cs.fpRegs != 0 {
			t.Fatalf("inactive cluster %d holds state: occ=%d", c, cs.occupancy())
		}
	}
}

func TestFewerClustersSlowerForILP(t *testing.T) {
	// swim has 28 parallel chains: 2 clusters must be slower than 16.
	ipc := func(n int) float64 {
		cfg := testConfig()
		cfg.ActiveClusters = n
		p := MustNew(cfg, workload.MustNew("swim", 1), nil)
		return mustRun(t, p, 60_000).IPC()
	}
	if i2, i16 := ipc(2), ipc(16); i2 >= i16 {
		t.Fatalf("2 clusters (%.3f) not slower than 16 (%.3f) for swim", i2, i16)
	}
}

func TestCommunicationAblationsHelp(t *testing.T) {
	base := testConfig()
	pb := MustNew(base, workload.MustNew("swim", 1), nil)
	rb := mustRun(t, pb, 60_000)

	fr := base
	fr.FreeRegComm = true
	pf := MustNew(fr, workload.MustNew("swim", 1), nil)
	rf := mustRun(t, pf, 60_000)
	if rf.IPC() <= rb.IPC() {
		t.Errorf("free register communication did not help: %.3f vs %.3f", rf.IPC(), rb.IPC())
	}
	if rf.RegTransfers != 0 {
		t.Errorf("free reg comm still recorded %d transfers", rf.RegTransfers)
	}

	fl := base
	fl.FreeLoadComm = true
	pl := MustNew(fl, workload.MustNew("swim", 1), nil)
	rl := mustRun(t, pl, 60_000)
	if rl.IPC() <= rb.IPC() {
		t.Errorf("free load communication did not help: %.3f vs %.3f", rl.IPC(), rb.IPC())
	}
}

func TestGridReducesCommunicationCost(t *testing.T) {
	// §6: the grid's better connectivity lowers communication cost. The
	// robust mechanical consequences: fewer link traversals per transfer
	// and no overall slowdown on a communication-heavy program.
	run := func(topo Topology) Result {
		cfg := testConfig()
		cfg.Topology = topo
		p := MustNew(cfg, workload.MustNew("djpeg", 1), nil)
		return mustRun(t, p, 100_000)
	}
	ring, grid := run(RingTopology), run(GridTopology)
	ringHops := float64(ring.Net.Hops) / float64(ring.Net.Transfers)
	gridHops := float64(grid.Net.Hops) / float64(grid.Net.Transfers)
	if gridHops >= ringHops {
		t.Errorf("grid hops/transfer %.2f not below ring %.2f", gridHops, ringHops)
	}
	if grid.IPC() < ring.IPC()*0.97 {
		t.Errorf("grid IPC %.3f well below ring %.3f", grid.IPC(), ring.IPC())
	}
}

func TestSteeringPoliciesRun(t *testing.T) {
	for _, pol := range []SteeringPolicy{SteerOperandMajority, SteerModN, SteerFirstFit} {
		cfg := testConfig()
		cfg.Steering = pol
		p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
		r := mustRun(t, p, 20_000)
		if r.IPC() <= 0 {
			t.Errorf("steering policy %d made no progress", pol)
		}
	}
}

func TestFirstFitCommunicatesLessThanModN(t *testing.T) {
	// First-fit minimizes communication by packing; Mod_N minimizes load
	// imbalance by spreading (§2.1). The defining consequence: first-fit
	// induces fewer inter-cluster register transfers per instruction.
	xfers := func(pol SteeringPolicy) float64 {
		cfg := testConfig()
		cfg.Steering = pol
		p := MustNew(cfg, workload.MustNew("vpr", 1), nil)
		r := mustRun(t, p, 40_000)
		return float64(r.RegTransfers) / float64(r.Instructions)
	}
	ff, mn := xfers(SteerFirstFit), xfers(SteerModN)
	if ff >= mn {
		t.Fatalf("first-fit transfers/instr %.3f not below Mod_N %.3f", ff, mn)
	}
}

func TestDecentralizedRuns(t *testing.T) {
	cfg := testConfig()
	cfg.Cache = DecentralizedCache
	p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
	r := mustRun(t, p, 30_000)
	if r.IPC() <= 0 {
		t.Fatal("decentralized model made no progress")
	}
	if r.StoreBroadcasts == 0 {
		t.Error("no store-address broadcasts recorded")
	}
	if r.Bank.Lookups == 0 {
		t.Error("bank predictor never trained")
	}
}

// TestDecentralizedBuiltNarrow: a decentralized machine built with 4 active
// clusters interleaves its L1 over those clusters' banks from the start, so
// it never homes a line in banks 4–15.
func TestDecentralizedBuiltNarrow(t *testing.T) {
	cfg := testConfig()
	cfg.Cache = DecentralizedCache
	cfg.ActiveClusters = 4
	p := MustNew(cfg, workload.MustNew("swim", 1), nil)
	mustRun(t, p, 10_000)
	for addr := uint64(0); addr < 1<<12; addr++ {
		if h := p.memsys.HomeCluster(addr); h >= 4 {
			t.Fatalf("address %#x homed in bank %d of a 4-cluster machine", addr, h)
		}
	}
}

func TestDecentralizedReconfigurationFlushes(t *testing.T) {
	cfg := testConfig()
	cfg.Cache = DecentralizedCache
	ctrl := &flipController{period: 5_000, a: 16, b: 4}
	p := MustNew(cfg, workload.MustNew("gzip", 1), ctrl)
	r := mustRun(t, p, 40_000)
	if r.Reconfigs == 0 {
		t.Fatal("no reconfigurations applied")
	}
	if r.Mem.Flushes == 0 {
		t.Fatal("reconfiguration did not flush the decentralized cache")
	}
	if p.ActiveClusters() != 16 && p.ActiveClusters() != 4 {
		t.Fatalf("unexpected active clusters %d", p.ActiveClusters())
	}
}

func TestCentralizedReconfigurationImmediate(t *testing.T) {
	ctrl := &flipController{period: 2_000, a: 16, b: 2}
	p := MustNew(testConfig(), workload.MustNew("gzip", 1), ctrl)
	r := mustRun(t, p, 30_000)
	if r.Reconfigs < 10 {
		t.Fatalf("expected frequent reconfigs, got %d", r.Reconfigs)
	}
	if r.Mem.Flushes != 0 {
		t.Fatalf("centralized cache flushed %d times on reconfiguration", r.Mem.Flushes)
	}
}

// flipController alternates between two cluster counts every period
// committed instructions.
type flipController struct {
	period uint64
	a, b   int
	n      uint64
	useB   bool
}

func (f *flipController) Name() string { return "flip" }
func (f *flipController) Reset(int)    { f.n, f.useB = 0, false }
func (f *flipController) OnCommit(ev CommitEvent) int {
	f.n++
	if f.n%f.period == 0 {
		f.useB = !f.useB
	}
	if f.useB {
		return f.b
	}
	return f.a
}

func TestPerfectBankPredictionHelps(t *testing.T) {
	cfg := testConfig()
	cfg.Cache = DecentralizedCache
	pb := MustNew(cfg, workload.MustNew("swim", 1), nil)
	rb := mustRun(t, pb, 50_000)
	cfg.PerfectBankPred = true
	pp := MustNew(cfg, workload.MustNew("swim", 1), nil)
	rp := mustRun(t, pp, 50_000)
	if rp.IPC() < rb.IPC()*0.98 {
		t.Fatalf("oracle banks (%.3f) worse than predicted (%.3f)", rp.IPC(), rb.IPC())
	}
	if rp.BankMispredicts != 0 {
		t.Fatalf("oracle recorded %d bank mispredicts", rp.BankMispredicts)
	}
}

func TestDistantBitsConsistent(t *testing.T) {
	p := MustNew(testConfig(), workload.MustNew("swim", 1), nil)
	r := mustRun(t, p, 50_000)
	if r.DistantIssued == 0 {
		t.Fatal("swim produced no distant ILP at 16 clusters")
	}
	if r.DistantCommitted > r.DistantIssued {
		t.Fatalf("committed distant (%d) exceeds issued (%d)", r.DistantCommitted, r.DistantIssued)
	}
}

func TestRedirectsMatchPredictorMispredicts(t *testing.T) {
	p := MustNew(testConfig(), workload.MustNew("vpr", 1), nil)
	r := mustRun(t, p, 50_000)
	// Every front-end mispredict stalls fetch and is counted at commit;
	// in-flight ones at the end explain any small difference.
	diff := int64(r.Branch.Mispredicts) - int64(r.Redirects)
	if diff < 0 || diff > 5 {
		t.Fatalf("redirects %d vs predictor mispredicts %d", r.Redirects, r.Branch.Mispredicts)
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.AvgActiveClusters() != 0 || r.AvgRegCommLatency() != 0 {
		t.Fatal("zero Result helpers not zero")
	}
	r = Result{Instructions: 100, Cycles: 50, Redirects: 4}
	if r.IPC() != 2 {
		t.Fatalf("IPC %f", r.IPC())
	}
	if r.MispredictInterval() != 25 {
		t.Fatalf("mispredict interval %f", r.MispredictInterval())
	}
	r.Redirects = 0
	if r.MispredictInterval() != 100 {
		t.Fatal("zero-redirect interval should be run length")
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	p := MustNew(testConfig(), workload.MustNew("swim", 1), nil)
	for i := 0; i < 50; i++ {
		mustRun(t, p, 1000)
		if occ := p.tailSeq - p.headSeq; occ > uint64(p.cfg.ROB) {
			t.Fatalf("ROB occupancy %d exceeds %d", occ, p.cfg.ROB)
		}
		for c := range p.clusters {
			cs := &p.clusters[c]
			if len(cs.iqInt) > p.cfg.IQPerCluster || len(cs.iqFP) > p.cfg.IQPerCluster {
				t.Fatalf("cluster %d IQ overflow", c)
			}
			if cs.intRegs > p.cfg.RegsPerCluster || cs.fpRegs > p.cfg.RegsPerCluster {
				t.Fatalf("cluster %d register overflow", c)
			}
			if cs.intRegs < 0 || cs.fpRegs < 0 || cs.lsq < 0 {
				t.Fatalf("cluster %d negative resource accounting", c)
			}
		}
	}
}

func TestHopLatencySlowsCommunication(t *testing.T) {
	ipc := func(hop int) float64 {
		cfg := testConfig()
		cfg.HopLatency = hop
		p := MustNew(cfg, workload.MustNew("swim", 1), nil)
		return mustRun(t, p, 50_000).IPC()
	}
	if one, two := ipc(1), ipc(2); two >= one {
		t.Fatalf("doubled hop latency did not slow the machine: %.3f vs %.3f", two, one)
	}
}

func TestFuForMapping(t *testing.T) {
	cases := []struct {
		c    isa.Class
		want fuKind
	}{
		{isa.IntALU, fuIntALU}, {isa.Load, fuIntALU}, {isa.Store, fuIntALU},
		{isa.Branch, fuIntALU}, {isa.Call, fuIntALU}, {isa.Return, fuIntALU},
		{isa.IntMult, fuIntMulDiv}, {isa.IntDiv, fuIntMulDiv},
		{isa.FPALU, fuFPALU}, {isa.FPMult, fuFPMulDiv}, {isa.FPDiv, fuFPMulDiv},
	}
	for _, tc := range cases {
		if got := fuFor(tc.c); got != tc.want {
			t.Errorf("fuFor(%s) = %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestStoreLoadForwardingOccurs(t *testing.T) {
	// gzip writes and re-reads its small output window; forwarding must
	// happen at least occasionally.
	p := MustNew(testConfig(), workload.MustNew("gzip", 2), nil)
	r := mustRun(t, p, 900_000)
	if r.LoadForwards == 0 {
		t.Fatal("no store-to-load forwarding in 900K instructions")
	}
}

func TestICacheAndTLBDefaultsOn(t *testing.T) {
	p := MustNew(testConfig(), workload.MustNew("crafty", 1), nil)
	r := mustRun(t, p, 60_000)
	if r.ICacheMisses == 0 {
		t.Error("no instruction-cache misses recorded (cold start must miss)")
	}
	if r.TLBMisses == 0 {
		t.Error("no TLB misses recorded (cold start must walk)")
	}
}

// wildController returns out-of-range requests to exercise clamping.
type wildController struct{ n uint64 }

func (w *wildController) Name() string { return "wild" }
func (w *wildController) Reset(int)    {}
func (w *wildController) OnCommit(ev CommitEvent) int {
	w.n++
	switch w.n % 3 {
	case 0:
		return 99 // clamped to total
	case 1:
		return -5 // clamped to 1
	}
	return 0 // no change
}

func TestRequestActiveClamps(t *testing.T) {
	p := MustNew(testConfig(), workload.MustNew("gzip", 1), &wildController{})
	mustRun(t, p, 5_000)
	if a := p.ActiveClusters(); a < 1 || a > 16 {
		t.Fatalf("active clusters %d escaped [1,16]", a)
	}
}

func TestModNRotatesClusters(t *testing.T) {
	cfg := testConfig()
	cfg.Steering = SteerModN
	cfg.ModN = 2
	p := MustNew(cfg, workload.MustNew("swim", 1), nil)
	mustRun(t, p, 20_000)
	// Mod_2 must have used many clusters for a high-throughput program.
	used := 0
	for c := range p.clusters {
		if p.clusters[c].intRegs > 0 || p.clusters[c].fpRegs > 0 || p.clusters[c].occupancy() > 0 {
			used++
		}
	}
	if used < 8 {
		t.Fatalf("Mod_2 used only %d clusters", used)
	}
}

// mustRun advances p by n committed instructions, failing the test on any
// run error (deadlock or external stop).
func mustRun(tb testing.TB, p *Processor, n uint64) Result {
	tb.Helper()
	res, err := p.Run(n)
	if err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return res
}
