package workload

import (
	"testing"

	"clustersim/internal/isa"
)

func TestBenchmarksListed(t *testing.T) {
	names := Benchmarks()
	if len(names) != 9 {
		t.Fatalf("have %d benchmarks, want 9: %v", len(names), names)
	}
	for _, n := range names {
		if _, ok := Paper(n); !ok {
			t.Errorf("benchmark %s has no paper data", n)
		}
	}
	for _, n := range sortedKeys(paperData) {
		if _, err := New(n, 1); err != nil {
			t.Errorf("paper data for %s has no program: %v", n, err)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("doom", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew("doom", 1)
}

func TestDeterminism(t *testing.T) {
	for _, name := range Benchmarks() {
		a := MustNew(name, 7)
		b := MustNew(name, 7)
		var x, y isa.Instruction
		for i := 0; i < 20000; i++ {
			a.Next(&x)
			b.Next(&y)
			if x != y {
				t.Fatalf("%s: streams diverged at %d: %v vs %v", name, i, x, y)
			}
		}
	}
}

func TestResetRewinds(t *testing.T) {
	g := MustNew("crafty", 3)
	var first [1000]isa.Instruction
	for i := range first {
		g.Next(&first[i])
	}
	g.Reset()
	var in isa.Instruction
	for i := range first {
		g.Next(&in)
		if in != first[i] {
			t.Fatalf("reset stream diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := MustNew("vpr", 1)
	b := MustNew("vpr", 2)
	var x, y isa.Instruction
	same := 0
	for i := 0; i < 5000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x == y {
			same++
		}
	}
	if same == 5000 {
		t.Fatal("different seeds produced identical streams")
	}
}

// Every PC must map to exactly one operation class — static code.
func TestStaticClassPerPC(t *testing.T) {
	for _, name := range Benchmarks() {
		g := MustNew(name, 11)
		classes := make(map[uint64]isa.Class)
		var in isa.Instruction
		for i := 0; i < 100000; i++ {
			g.Next(&in)
			if c, ok := classes[in.PC]; ok {
				if c != in.Class {
					t.Fatalf("%s: PC %#x was %s now %s", name, in.PC, c, in.Class)
				}
			} else {
				classes[in.PC] = in.Class
			}
		}
		if len(classes) < 8 {
			t.Fatalf("%s: only %d static instructions seen", name, len(classes))
		}
	}
}

// Taken branch targets must be stable per PC (returns excepted — their
// target is the dynamic return address, which the RAS predicts).
func TestStableTargets(t *testing.T) {
	for _, name := range Benchmarks() {
		g := MustNew(name, 5)
		targets := make(map[uint64]uint64)
		var in isa.Instruction
		for i := 0; i < 100000; i++ {
			g.Next(&in)
			if !in.Class.IsCtrl() || !in.Taken || in.Class == isa.Return {
				continue
			}
			if tgt, ok := targets[in.PC]; ok && tgt != in.Target {
				t.Fatalf("%s: branch %#x target changed %#x -> %#x", name, in.PC, tgt, in.Target)
			}
			targets[in.PC] = in.Target
		}
	}
}

// Producer distances must point at instructions that actually write a
// destination register.
func TestDistancesPointAtProducers(t *testing.T) {
	for _, name := range Benchmarks() {
		g := MustNew(name, 9)
		const n = 50000
		hasDest := make([]bool, n)
		var in isa.Instruction
		for i := 0; i < n; i++ {
			g.Next(&in)
			hasDest[i] = in.HasDest
			for _, d := range []uint32{in.SrcDist1, in.SrcDist2} {
				if d == 0 {
					continue
				}
				j := i - int(d)
				if j < 0 {
					continue // producer before the measured window
				}
				if !hasDest[j] {
					t.Fatalf("%s: instr %d src dist %d points at non-producer", name, i, d)
				}
			}
		}
	}
}

func TestAddressesAlignedAndBounded(t *testing.T) {
	for _, name := range Benchmarks() {
		g := MustNew(name, 13)
		var in isa.Instruction
		for i := 0; i < 50000; i++ {
			g.Next(&in)
			if !in.Class.IsMem() {
				continue
			}
			if in.Addr%8 != 0 {
				t.Fatalf("%s: unaligned address %#x", name, in.Addr)
			}
			if in.Addr == 0 {
				t.Fatalf("%s: zero address", name)
			}
		}
	}
}

// profile summarizes a stream's instruction mix.
type profile struct {
	branches, mems, fps, calls, rets int
	total                            int
}

func profileStream(name string, n int) profile {
	g := MustNew(name, 21)
	var in isa.Instruction
	var p profile
	for i := 0; i < n; i++ {
		g.Next(&in)
		p.total++
		switch {
		case in.Class == isa.Call:
			p.calls++
		case in.Class == isa.Return:
			p.rets++
		case in.Class.IsCtrl():
			p.branches++
		case in.Class.IsMem():
			p.mems++
		case in.Class.IsFP():
			p.fps++
		}
	}
	return p
}

func TestInstructionMixPlausible(t *testing.T) {
	for _, name := range Benchmarks() {
		p := profileStream(name, 200000)
		bf := float64(p.branches+p.calls+p.rets) / float64(p.total)
		mf := float64(p.mems) / float64(p.total)
		if bf < 0.01 || bf > 0.35 {
			t.Errorf("%s: branch fraction %.3f implausible", name, bf)
		}
		if mf < 0.10 || mf > 0.60 {
			t.Errorf("%s: memory fraction %.3f implausible", name, mf)
		}
	}
}

func TestFPBenchmarksAreFP(t *testing.T) {
	for _, name := range []string{"swim", "mgrid", "galgel"} {
		p := profileStream(name, 100000)
		if float64(p.fps)/float64(p.total) < 0.2 {
			t.Errorf("%s: FP fraction %.3f too low", name, float64(p.fps)/float64(p.total))
		}
	}
	for _, name := range []string{"gzip", "vpr", "parser"} {
		p := profileStream(name, 100000)
		if p.fps > 0 {
			t.Errorf("%s: unexpected FP instructions (%d)", name, p.fps)
		}
	}
}

func TestCraftyHasCalls(t *testing.T) {
	p := profileStream("crafty", 200000)
	if p.calls == 0 || p.rets == 0 {
		t.Fatalf("crafty calls=%d rets=%d; want both nonzero", p.calls, p.rets)
	}
	if p.calls != p.rets {
		// Calls and returns pair up over a long window (off-by-one at
		// the window edge is fine).
		d := p.calls - p.rets
		if d < -1 || d > 1 {
			t.Fatalf("calls %d and returns %d unbalanced", p.calls, p.rets)
		}
	}
}

func TestPhasesCycle(t *testing.T) {
	// gzip alternates two 400K phases; over 1.7M instructions we must see
	// PCs from both phases' code regions.
	const phaseStride = 1 << 24 // engine PC space per phase
	g := MustNew("gzip", 17)
	regions := make(map[uint64]bool)
	var in isa.Instruction
	for i := 0; i < 1_700_000; i++ {
		g.Next(&in)
		regions[in.PC/phaseStride] = true
	}
	if len(regions) < 2 {
		t.Fatalf("gzip visited %d phase regions, want >= 2", len(regions))
	}
}

func TestEndsBlockMarks(t *testing.T) {
	g := MustNew("mgrid", 2)
	var in isa.Instruction
	ctrlWithoutEnd := 0
	blocks := 0
	for i := 0; i < 50000; i++ {
		g.Next(&in)
		if in.Class.IsCtrl() {
			if !in.EndsBlock {
				ctrlWithoutEnd++
			}
			blocks++
		}
	}
	if ctrlWithoutEnd > 0 {
		t.Fatalf("%d control transfers without EndsBlock", ctrlWithoutEnd)
	}
	if blocks == 0 {
		t.Fatal("no control transfers at all")
	}
}
