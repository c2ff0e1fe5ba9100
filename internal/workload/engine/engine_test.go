package engine_test

import (
	"slices"
	"testing"
	"testing/quick"

	"clustersim/internal/isa"
	"clustersim/internal/workload/engine"
)

// These tests exercise the generator engine through engine.Custom, reading
// its compiled static code back off the stream: a basic block occupies
// blockStride bytes of PC space and each slot is one 4-byte PC.
const blockStride = 1 << 13

// testKernel returns a small kernel with every feature exercisable.
func testKernel() engine.Kernel {
	return engine.Kernel{
		Chains:   4,
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		MultFrac: 0.2, CrossFrac: 0.1, FreshFrac: 0.05,
		LoopBody: 20, LoopIters: 5,
		RandBranchFrac: 0.5, RandTakenProb: 0.5,
		Stride: 8, Footprint: 1 << 16,
		StaticBlocks: 3,
	}
}

// engineFor builds a one-phase program over k that never changes phase.
func engineFor(t *testing.T, k engine.Kernel, seed uint64) engine.Generator {
	t.Helper()
	g, err := engine.Custom("test", []engine.Phase{{Name: "p0", Length: 1 << 40, Kernel: k}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// slot is one compiled instruction slot as the stream reveals it.
type slot struct {
	seen     bool
	class    isa.Class
	backward bool // a loop branch: its target precedes it
	taken    bool // a forward branch seen taken at least once
}

// staticBlocks drains n instructions from g and returns every basic block's
// slots, blocks in PC order.
func staticBlocks(g engine.Generator, n int) [][]slot {
	byPC := map[uint64][]slot{}
	var in isa.Instruction
	for i := 0; i < n; i++ {
		g.Next(&in)
		b, idx := in.PC/blockStride, int(in.PC%blockStride/4)
		code := byPC[b]
		for len(code) <= idx {
			code = append(code, slot{})
		}
		s := &code[idx]
		s.seen, s.class = true, in.Class
		if in.Class == isa.Branch {
			s.backward = in.Target < in.PC
			s.taken = s.taken || (in.Taken && !s.backward)
		}
		byPC[b] = code
	}
	keys := make([]uint64, 0, len(byPC))
	for b := range byPC {
		keys = append(keys, b)
	}
	slices.Sort(keys)
	blocks := make([][]slot, len(keys))
	for i, b := range keys {
		blocks[i] = byPC[b]
	}
	return blocks
}

// classCounts tallies a block's loads, stores and forward branches.
func classCounts(block []slot) [3]int {
	var c [3]int
	for _, s := range block {
		switch {
		case s.class == isa.Load:
			c[0]++
		case s.class == isa.Store:
			c[1]++
		case s.class == isa.Branch && !s.backward:
			c[2]++
		}
	}
	return c
}

// randomBranches counts the forward branch slots ever seen taken: with
// RandTakenProb 0.5 and a long drain, exactly the data-dependent ones.
func randomBranches(blocks [][]slot) int {
	n := 0
	for _, block := range blocks {
		for _, s := range block {
			if s.taken {
				n++
			}
		}
	}
	return n
}

func TestCompileBlockExactCounts(t *testing.T) {
	k := testKernel()
	k.StaticBlocks = 1
	blocks := staticBlocks(engineFor(t, k, 1), 20_000)
	if len(blocks) != 1 {
		t.Fatalf("%d blocks, want 1", len(blocks))
	}
	block := blocks[0]
	if len(block) != k.LoopBody {
		t.Fatalf("block length %d", len(block))
	}
	for i, s := range block {
		if !s.seen {
			t.Fatalf("slot %d never executed", i)
		}
	}
	body := k.LoopBody - 1
	want := [3]int{
		int(k.LoadFrac*float64(body) + 0.5),
		int(k.StoreFrac*float64(body) + 0.5),
		int(k.BranchFrac*float64(body) + 0.5),
	}
	if got := classCounts(block); got != want {
		t.Errorf("loads/stores/branches %v, want %v", got, want)
	}
	if !block[body].backward {
		t.Error("block does not end with a loop branch")
	}
}

func TestCompileBlockClassCountsIdenticalAcrossBlocks(t *testing.T) {
	// Phase detection compares per-interval branch/memref counts at a 1%
	// threshold; blocks of the same kernel must have identical class
	// counts (the engine rounds them identically per block).
	k := testKernel()
	k.StaticBlocks = 11
	blocks := staticBlocks(engineFor(t, k, 2), 100_000)
	if len(blocks) != k.StaticBlocks {
		t.Fatalf("%d blocks, want %d", len(blocks), k.StaticBlocks)
	}
	first := classCounts(blocks[0])
	for i, block := range blocks[1:] {
		if got := classCounts(block); got != first {
			t.Fatalf("block %d counts %v differ from %v", i+1, got, first)
		}
	}
}

func TestRandomBranchCarryAccumulates(t *testing.T) {
	// With a sub-one expected random-branch count per block, the carry
	// must still realize the aggregate fraction across many blocks.
	k := testKernel()
	k.RandBranchFrac = 0.3 // 2 branch slots * 0.3 = 0.6 per block
	k.StaticBlocks = 100
	randoms := randomBranches(staticBlocks(engineFor(t, k, 3), 300_000))
	// Expected: 2 branch slots/block * 0.3 * 100 blocks = 60.
	if randoms < 50 || randoms > 70 {
		t.Fatalf("random branch slots %d, want ~60", randoms)
	}
}

func TestChaseMakesLoadsSeriallyDependent(t *testing.T) {
	k := testKernel()
	k.Chase = true
	k.RandomAddr = true
	e := engineFor(t, k, 5)
	var in isa.Instruction
	dependent, loads := 0, 0
	for i := 0; i < 30_000; i++ {
		e.Next(&in)
		if in.Class == isa.Load {
			loads++
			if in.SrcDist1 > 0 {
				dependent++
			}
		}
	}
	if loads == 0 {
		t.Fatal("no loads")
	}
	if frac := float64(dependent) / float64(loads); frac < 0.9 {
		t.Fatalf("chase: only %.2f of loads depend on a prior load", frac)
	}
}

func TestAddrDepFracControlsLoadDependence(t *testing.T) {
	frac := func(adf float64) float64 {
		k := testKernel()
		k.AddrDepFrac = adf
		e := engineFor(t, k, 7)
		var in isa.Instruction
		dep, loads := 0, 0
		for i := 0; i < 30_000; i++ {
			e.Next(&in)
			if in.Class == isa.Load {
				loads++
				if in.SrcDist1 > 0 {
					dep++
				}
			}
		}
		return float64(dep) / float64(loads)
	}
	low, high := frac(0.1), frac(0.9)
	if high <= low {
		t.Fatalf("AddrDepFrac not controlling dependence: low %.2f high %.2f", low, high)
	}
}

func TestReuseFracControlsLocality(t *testing.T) {
	distinct := func(reuse float64) int {
		k := testKernel()
		k.ReuseFrac = reuse
		e := engineFor(t, k, 9)
		var in isa.Instruction
		addrs := map[uint64]bool{}
		for i := 0; i < 20_000; i++ {
			e.Next(&in)
			if in.Class.IsMem() {
				addrs[in.Addr] = true
			}
		}
		return len(addrs)
	}
	noReuse, heavyReuse := distinct(-1), distinct(0.8)
	if heavyReuse >= noReuse {
		t.Fatalf("reuse did not reduce distinct addresses: %d vs %d", heavyReuse, noReuse)
	}
}

func TestLoopExitRateMatchesIters(t *testing.T) {
	k := testKernel()
	k.LoopIters = 10
	k.IterJitter = 0
	e := engineFor(t, k, 11)
	var in isa.Instruction
	taken, notTaken := 0, 0
	for i := 0; i < 50_000; i++ {
		e.Next(&in)
		if in.Class == isa.Branch && in.Target < in.PC && in.Target != 0 {
			// backward (loop) branch
			if in.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if notTaken == 0 {
		t.Fatal("no loop exits")
	}
	ratio := float64(taken) / float64(notTaken)
	if ratio < 7 || ratio > 11 {
		t.Fatalf("taken/exit ratio %.1f, want ~9 for 10 iterations", ratio)
	}
}

func TestCursorStaggerSpreadsWraps(t *testing.T) {
	k := testKernel()
	k.Chains = 8
	e := engineFor(t, k, 13)
	// Each chain owns one Footprint/Chains region of the (region-aligned)
	// data space. After phase entry, the chains' first accesses must land
	// at staggered offsets within their regions, not all at the start.
	region := uint64(k.Footprint) / uint64(k.Chains)
	seen := map[uint64]bool{} // regions already touched
	var offsets []uint64      // each region's first offset, in touch order
	var in isa.Instruction
	for i := 0; i < 10_000 && len(offsets) < k.Chains; i++ {
		e.Next(&in)
		if !in.Class.IsMem() || seen[in.Addr/region] {
			continue
		}
		seen[in.Addr/region] = true
		offsets = append(offsets, in.Addr%region)
	}
	if len(offsets) != k.Chains {
		t.Fatalf("%d chains touched memory, want %d", len(offsets), k.Chains)
	}
	stagger := map[uint64]bool{} // offsets bucketed by one chain's share
	for _, off := range offsets {
		stagger[off/(region/uint64(k.Chains))] = true
	}
	if len(stagger) == 1 {
		t.Fatal("cursors not staggered")
	}
}

// Property: the engine never emits an instruction whose producer distance
// exceeds its sequence position.
func TestDistancesNeverExceedPosition(t *testing.T) {
	f := func(seed uint64) bool {
		e := engineFor(t, testKernel(), seed)
		var in isa.Instruction
		for i := uint64(0); i < 2000; i++ {
			e.Next(&in)
			if uint64(in.SrcDist1) > i || uint64(in.SrcDist2) > i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMixCarryTake(t *testing.T) {
	// One forward branch slot per block at RandBranchFrac 0.3: ten blocks
	// carry 10 x 0.3 into whole random slots.
	k := testKernel()
	k.BranchFrac = 0.05 // 19 body slots * 0.05 rounds to 1 branch
	k.RandBranchFrac = 0.3
	k.StaticBlocks = 10
	total := randomBranches(staticBlocks(engineFor(t, k, 4), 100_000))
	// Floating-point accumulation may land on 2 or 3 (0.3 is inexact).
	if total < 2 || total > 3 {
		t.Fatalf("10 x 0.3 carried to %d, want 2..3", total)
	}
}
