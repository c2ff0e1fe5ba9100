package bpred

import (
	"testing"
	"testing/quick"

	"clustersim/internal/rng"
)

// MustNew is New but panics on configuration error.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// MustNewBank is NewBank but panics on error.
func MustNewBank(cfg BankConfig) *BankPredictor {
	p, err := NewBank(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if _, err := New(good); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := good
	bad.BimodalSize = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero BimodalSize accepted")
	}
	bad = good
	bad.Level2Size = 1000 // not a power of two
	if _, err := New(bad); err == nil {
		t.Fatal("non-power-of-two Level2Size accepted")
	}
}

func TestAlwaysTakenLearned(t *testing.T) {
	p := MustNew(DefaultConfig())
	const pc, target = 0x1000, 0x2000
	miss := 0
	for i := 0; i < 1000; i++ {
		if p.PredictBranch(pc, true, target) {
			miss++
		}
	}
	if miss > 3 {
		t.Fatalf("always-taken branch mispredicted %d/1000 times", miss)
	}
}

func TestLoopPatternLearned(t *testing.T) {
	// taken 9 times, not-taken once: the two-level component should
	// learn the whole pattern, giving near-zero steady-state mispredicts.
	p := MustNew(DefaultConfig())
	const pc, target = 0x4000, 0x4100
	warm := 0
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 10; i++ {
			taken := i != 9
			if p.PredictBranch(pc, taken, target) && rep >= 25 {
				warm++
			}
		}
	}
	if warm > 10 {
		t.Fatalf("10-iteration loop branch mispredicted %d times in steady state", warm)
	}
}

func TestRandomBranchMispredictsOften(t *testing.T) {
	p := MustNew(DefaultConfig())
	r := rng.New(1)
	const pc, target = 0x8000, 0x9000
	miss := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if p.PredictBranch(pc, r.Bool(0.5), target) {
			miss++
		}
	}
	rate := float64(miss) / n
	if rate < 0.3 || rate > 0.7 {
		t.Fatalf("random branch mispredict rate %f, want ~0.5", rate)
	}
}

func TestBTBTargetChangeDetected(t *testing.T) {
	p := MustNew(DefaultConfig())
	const pc = 0x100
	// Train taken to target A, then switch to target B: the switch must
	// register as a mispredict even though the direction is right.
	for i := 0; i < 100; i++ {
		p.PredictBranch(pc, true, 0xA00)
	}
	if !p.PredictBranch(pc, true, 0xB00) {
		t.Fatal("target change not flagged as mispredict")
	}
	// After update, the new target should predict correctly.
	if p.PredictBranch(pc, true, 0xB00) {
		t.Fatal("new target not learned")
	}
}

func TestCallReturnRAS(t *testing.T) {
	p := MustNew(DefaultConfig())
	// Call from pc=0x100 to 0x1000: first call misses BTB; thereafter hits.
	p.PredictCall(0x100, 0x1000)
	if p.PredictCall(0x100, 0x1000) {
		t.Fatal("second identical call mispredicted")
	}
	// Matching return should be predicted by the RAS.
	if p.PredictReturn(0x104) {
		t.Fatal("matched return mispredicted")
	}
	// Nested calls return in LIFO order.
	p.PredictCall(0x200, 0x2000)
	p.PredictCall(0x300, 0x3000)
	if p.PredictReturn(0x304) {
		t.Fatal("inner return mispredicted")
	}
	if p.PredictReturn(0x204) {
		t.Fatal("outer return mispredicted")
	}
	// Mismatched return must mispredict.
	p.PredictCall(0x400, 0x4000)
	if !p.PredictReturn(0xdead) {
		t.Fatal("wrong return address not flagged")
	}
}

func TestStatsAndReset(t *testing.T) {
	p := MustNew(DefaultConfig())
	for i := 0; i < 10; i++ {
		p.PredictBranch(0x10, true, 0x20)
	}
	s := p.Stats()
	if s.Lookups != 10 {
		t.Fatalf("lookups %d", s.Lookups)
	}
	if s.MispredictRate() < 0 || s.MispredictRate() > 1 {
		t.Fatalf("rate %f", s.MispredictRate())
	}
	p = MustNew(DefaultConfig())
	if p.Stats().Lookups != 0 {
		t.Fatal("a new predictor starts with lookups")
	}
	if (Stats{}).MispredictRate() != 0 {
		t.Fatal("empty rate not 0")
	}
}

func TestPredictorDeterminism(t *testing.T) {
	run := func() []bool {
		p := MustNew(DefaultConfig())
		r := rng.New(99)
		out := make([]bool, 0, 500)
		for i := 0; i < 500; i++ {
			pc := uint64(r.Intn(64)) * 4
			out = append(out, p.PredictBranch(pc, r.Bool(0.7), pc+64))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

// Property: bump stays within [0,3].
func TestBumpSaturates(t *testing.T) {
	f := func(c uint8, up bool) bool {
		v := bump(c%4, up)
		return v <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if bump(3, true) != 3 || bump(0, false) != 0 {
		t.Fatal("saturation wrong")
	}
}

func TestBankConfigValidation(t *testing.T) {
	if _, err := NewBank(DefaultBankConfig()); err != nil {
		t.Fatalf("default bank config rejected: %v", err)
	}
	bad := DefaultBankConfig()
	bad.MaxBanks = 3
	if _, err := NewBank(bad); err == nil {
		t.Fatal("non-power-of-two MaxBanks accepted")
	}
	bad = DefaultBankConfig()
	bad.MaxBanks = 512
	if _, err := NewBank(bad); err == nil {
		t.Fatal("oversized MaxBanks accepted")
	}
}

func TestBankStablePatternLearned(t *testing.T) {
	p := MustNewBank(DefaultBankConfig())
	const pc = 0x500
	// A load that always hits bank 5.
	for i := 0; i < 50; i++ {
		p.Update(pc, 5, 16)
	}
	if got := p.Predict(pc, 16); got != 5 {
		t.Fatalf("predicted bank %d, want 5", got)
	}
	// Masked down to 4 active banks the low bits must survive (§5).
	if got := p.Predict(pc, 4); got != 5&3 {
		t.Fatalf("masked prediction %d, want %d", got, 5&3)
	}
}

func TestBankMaskingOnUpdate(t *testing.T) {
	p := MustNewBank(DefaultBankConfig())
	const pc = 0x600
	for i := 0; i < 50; i++ {
		p.Update(pc, 6, 16)
	}
	// With 4 banks active, bank 6 aliases to bank 2: prediction 6&3 == 2
	// must be counted correct.
	if !p.Update(pc, 6, 4) {
		t.Fatal("masked-correct prediction counted wrong")
	}
}

func TestBankPredictionInRange(t *testing.T) {
	f := func(pc uint64, bank uint8, activeLog uint8) bool {
		p := MustNewBank(DefaultBankConfig())
		active := 1 << (activeLog % 5) // 1..16
		p.Update(pc, int(bank%16), active)
		got := p.Predict(pc, active)
		return got >= 0 && got < active
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBankStrideLearnedThroughHistory(t *testing.T) {
	// A strided access rotating over all banks is exactly the pattern the
	// two-level organization exists to capture: the bank history selects
	// a distinct second-level entry per position in the rotation.
	p := MustNewBank(DefaultBankConfig())
	const pc = 0x700
	wrong := 0
	for i := 0; i < 1000; i++ {
		if !p.Update(pc, i%16, 16) && i > 200 {
			wrong++
		}
	}
	if wrong > 40 {
		t.Fatalf("rotating banks mispredicted %d times in steady state", wrong)
	}
}

func TestBankRandomUnpredictable(t *testing.T) {
	p := MustNewBank(DefaultBankConfig())
	r := rng.New(4)
	const pc = 0x710
	wrong := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if !p.Update(pc, r.Intn(16), 16) {
			wrong++
		}
	}
	if rate := float64(wrong) / n; rate < 0.5 {
		t.Fatalf("random banks mispredict rate %f, want high", rate)
	}
}
