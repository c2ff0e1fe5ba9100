package stats

import (
	"testing"
	"testing/quick"

	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

func mkInterval(instrs, cycles, br, mem uint64) Interval {
	return Interval{Instructions: instrs, Cycles: cycles, Branches: br, Memrefs: mem}
}

func TestIntervalIPC(t *testing.T) {
	if (Interval{}).IPC() != 0 {
		t.Fatal("zero interval IPC")
	}
	if got := mkInterval(100, 50, 0, 0).IPC(); got != 2 {
		t.Fatalf("IPC %f", got)
	}
}

func TestRecorderCollectsIntervals(t *testing.T) {
	r := NewRecorder(1000)
	r.Reset(16)
	p := pipeline.MustNew(pipeline.DefaultConfig(), workload.MustNew("gzip", 1), r)
	mustRun(t, p, 25_000)
	ivs := r.Intervals()
	if len(ivs) < 20 {
		t.Fatalf("got %d intervals, want >= 20", len(ivs))
	}
	for i, iv := range ivs {
		if iv.Instructions != 1000 {
			t.Fatalf("interval %d has %d instructions", i, iv.Instructions)
		}
		if iv.Cycles == 0 {
			t.Fatalf("interval %d has zero cycles", i)
		}
		if iv.Branches == 0 || iv.Memrefs == 0 {
			t.Fatalf("interval %d missing metrics: %+v", i, iv)
		}
		if iv.Branches+iv.Memrefs > iv.Instructions {
			t.Fatalf("interval %d metrics exceed instructions", i)
		}
	}
}

func TestRecorderPinsClusters(t *testing.T) {
	r := NewRecorder(1000)
	r.Clusters = 4
	p := pipeline.MustNew(pipeline.DefaultConfig(), workload.MustNew("gzip", 1), r)
	mustRun(t, p, 10_000)
	if p.ActiveClusters() != 4 {
		t.Fatalf("recorder did not pin clusters: %d", p.ActiveClusters())
	}
}

func TestAggregate(t *testing.T) {
	trace := []Interval{
		mkInterval(10, 5, 1, 2), mkInterval(10, 5, 1, 2),
		mkInterval(10, 10, 3, 4), mkInterval(10, 10, 3, 4),
		mkInterval(10, 1, 0, 0), // trailing partial group
	}
	agg := Aggregate(trace, 2)
	if len(agg) != 2 {
		t.Fatalf("aggregated %d groups", len(agg))
	}
	if agg[0] != mkInterval(20, 10, 2, 4) {
		t.Fatalf("group 0: %+v", agg[0])
	}
	if agg[1] != mkInterval(20, 20, 6, 8) {
		t.Fatalf("group 1: %+v", agg[1])
	}
	// k<=1 copies.
	same := Aggregate(trace, 1)
	if len(same) != len(trace) {
		t.Fatal("k=1 changed length")
	}
	same[0].Instructions = 999
	if trace[0].Instructions == 999 {
		t.Fatal("k=1 did not copy")
	}
}

// Property: aggregation preserves totals over whole groups.
func TestAggregatePreservesTotals(t *testing.T) {
	f := func(raw []uint8, k8 uint8) bool {
		k := int(k8%4) + 1
		trace := make([]Interval, len(raw))
		for i, v := range raw {
			trace[i] = mkInterval(uint64(v)+1, uint64(v)+2, uint64(v)%7, uint64(v)%5)
		}
		agg := Aggregate(trace, k)
		var wantInstrs, gotInstrs uint64
		n := (len(trace) / k) * k
		for _, iv := range trace[:n] {
			wantInstrs += iv.Instructions
		}
		for _, iv := range agg {
			gotInstrs += iv.Instructions
		}
		return wantInstrs == gotInstrs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateEdgeCases(t *testing.T) {
	trace := []Interval{mkInterval(10, 5, 1, 2), mkInterval(20, 10, 2, 4)}
	// k larger than the trace drops everything.
	if got := Aggregate(trace, 3); len(got) != 0 {
		t.Fatalf("k>len produced %d groups", len(got))
	}
	// k exactly len folds to one group.
	if got := Aggregate(trace, 2); len(got) != 1 || got[0] != mkInterval(30, 15, 3, 6) {
		t.Fatalf("k=len: %+v", got)
	}
	// k<=0 behaves like k=1 (copy).
	if got := Aggregate(trace, 0); len(got) != 2 || got[0] != trace[0] {
		t.Fatalf("k=0: %+v", got)
	}
	if got := Aggregate(nil, 2); len(got) != 0 {
		t.Fatalf("nil trace: %+v", got)
	}
}

func TestRecorderDropsPartialInterval(t *testing.T) {
	r := NewRecorder(0) // 0 selects the 10K default
	if r.Base != 10_000 {
		t.Fatalf("default base %d", r.Base)
	}
	r.Reset(16)
	for i := 0; i < 25_000; i++ {
		r.OnCommit(pipeline.CommitEvent{Cycle: uint64(i * 2)})
	}
	ivs := r.Intervals()
	// 25K commits at base 10K: two whole intervals, the partial third
	// dropped.
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	for i, iv := range ivs {
		if iv.Instructions != 10_000 {
			t.Fatalf("interval %d: %d instructions", i, iv.Instructions)
		}
		if iv.Cycles == 0 {
			t.Fatalf("interval %d: zero cycles", i)
		}
	}
	// Reset clears the trace.
	r.Reset(16)
	if len(r.Intervals()) != 0 {
		t.Fatal("Reset kept intervals")
	}
}

func TestInstabilityUniformTraceIsStable(t *testing.T) {
	trace := make([]Interval, 100)
	for i := range trace {
		trace[i] = mkInterval(1000, 500, 100, 300)
	}
	if got := Instability(trace, DefaultThresholds()); got != 0 {
		t.Fatalf("uniform trace instability %f", got)
	}
}

func TestInstabilityAlternatingTrace(t *testing.T) {
	trace := make([]Interval, 100)
	for i := range trace {
		if i%2 == 0 {
			trace[i] = mkInterval(1000, 500, 100, 300)
		} else {
			trace[i] = mkInterval(1000, 500, 200, 300) // branch surge
		}
	}
	got := Instability(trace, DefaultThresholds())
	if got < 90 {
		t.Fatalf("alternating trace instability %f, want ~100", got)
	}
}

func TestInstabilitySinglePhaseChange(t *testing.T) {
	trace := make([]Interval, 100)
	for i := range trace {
		if i < 50 {
			trace[i] = mkInterval(1000, 500, 100, 300)
		} else {
			trace[i] = mkInterval(1000, 500, 250, 350)
		}
	}
	got := Instability(trace, DefaultThresholds())
	// Exactly one unstable interval out of 99.
	if got < 0.5 || got > 2 {
		t.Fatalf("single phase change instability %f", got)
	}
}

func TestInstabilityIPCOnly(t *testing.T) {
	trace := make([]Interval, 10)
	for i := range trace {
		cycles := uint64(500)
		if i == 5 {
			cycles = 2000 // IPC collapses
		}
		trace[i] = mkInterval(1000, cycles, 100, 300)
	}
	if got := Instability(trace, DefaultThresholds()); got == 0 {
		t.Fatal("IPC collapse not detected")
	}
}

func TestInstabilityShortTraces(t *testing.T) {
	if Instability(nil, DefaultThresholds()) != 0 {
		t.Fatal("nil trace")
	}
	if Instability([]Interval{mkInterval(1, 1, 0, 0)}, DefaultThresholds()) != 0 {
		t.Fatal("singleton trace")
	}
}

func TestAggregationStabilizesAlternation(t *testing.T) {
	// The Table 4 effect: a trace alternating at period 2 is maximally
	// unstable at base granularity and perfectly stable at k=2.
	trace := make([]Interval, 200)
	for i := range trace {
		if i%2 == 0 {
			trace[i] = mkInterval(1000, 400, 100, 300)
		} else {
			trace[i] = mkInterval(1000, 600, 200, 340)
		}
	}
	fine := Instability(trace, DefaultThresholds())
	coarse := Instability(Aggregate(trace, 2), DefaultThresholds())
	if fine < 50 {
		t.Fatalf("fine instability %f", fine)
	}
	if coarse != 0 {
		t.Fatalf("coarse instability %f", coarse)
	}
}

func TestMinStableInterval(t *testing.T) {
	trace := make([]Interval, 240)
	for i := range trace {
		if (i/3)%2 == 0 { // period-6 alternation
			trace[i] = mkInterval(1000, 400, 100, 300)
		} else {
			trace[i] = mkInterval(1000, 600, 220, 350)
		}
	}
	length, factor := MinStableInterval(trace, 10_000, []int{1, 2, 3, 6, 12}, 5, DefaultThresholds())
	if length != 60_000 {
		t.Fatalf("min stable interval %d, want 60000", length)
	}
	if factor >= 5 {
		t.Fatalf("reported factor %f", factor)
	}
}

// TestAnalysisDegenerateInputs is a table of degenerate-input cases across
// the analysis entry points: empty traces, single intervals, aggregation
// coarser than the trace, and empty multiplier lists must all degrade
// gracefully instead of panicking or dividing by zero.
func TestAnalysisDegenerateInputs(t *testing.T) {
	th := DefaultThresholds()
	iv := Interval{Instructions: 10_000, Cycles: 5_000, Branches: 800, Memrefs: 3_000}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"aggregate empty trace", func(t *testing.T) {
			if got := Aggregate(nil, 4); len(got) != 0 {
				t.Fatalf("got %v", got)
			}
		}},
		{"aggregate coarser than trace drops everything", func(t *testing.T) {
			if got := Aggregate([]Interval{iv, iv}, 3); len(got) != 0 {
				t.Fatalf("got %v", got)
			}
		}},
		{"aggregate k=0 copies", func(t *testing.T) {
			src := []Interval{iv}
			got := Aggregate(src, 0)
			if len(got) != 1 || got[0] != iv {
				t.Fatalf("got %v", got)
			}
			got[0].Cycles++ // must be a copy, not an alias
			if src[0].Cycles != iv.Cycles {
				t.Fatal("Aggregate aliased its input")
			}
		}},
		{"instability of empty and single traces", func(t *testing.T) {
			if f := Instability(nil, th); f != 0 {
				t.Fatalf("empty: %v", f)
			}
			if f := Instability([]Interval{iv}, th); f != 0 {
				t.Fatalf("single: %v", f)
			}
		}},
		{"instability with zero-cycle reference", func(t *testing.T) {
			zero := Interval{Instructions: 10_000}
			if f := Instability([]Interval{zero, zero}, th); f != 0 {
				t.Fatalf("zero-IPC pair should be stable, got %v", f)
			}
			if f := Instability([]Interval{zero, iv}, th); f != 100 {
				t.Fatalf("zero-to-nonzero IPC should be a phase change, got %v", f)
			}
		}},
		{"min stable interval on empty trace", func(t *testing.T) {
			length, factor := MinStableInterval(nil, 10_000, []int{1, 4}, 5, th)
			if length != 10_000 || factor != 0 {
				t.Fatalf("got length %d factor %v", length, factor)
			}
		}},
		{"min stable interval with no multipliers", func(t *testing.T) {
			length, factor := MinStableInterval([]Interval{iv, iv}, 10_000, nil, 5, th)
			if length != 0 || factor != 0 {
				t.Fatalf("got length %d factor %v", length, factor)
			}
		}},
		{"interval IPC with zero cycles", func(t *testing.T) {
			if got := (Interval{Instructions: 5}).IPC(); got != 0 {
				t.Fatalf("got %v", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// mustRun advances p by n committed instructions, failing the test on error.
func mustRun(tb testing.TB, p *pipeline.Processor, n uint64) pipeline.Result {
	tb.Helper()
	res, err := p.Run(n)
	if err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return res
}
