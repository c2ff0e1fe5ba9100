package policy

import (
	"testing"

	"clustersim/internal/pipeline"
)

// TestRecorderDisabledAllocFree pins the satellite guarantee that the
// decision-recording hook is alloc-neutral when recording is off: a
// nil-trace Recorder adds one nil test per commit and nothing else.
func TestRecorderDisabledAllocFree(t *testing.T) {
	spec, err := Paper("distant-ilp")
	if err != nil {
		t.Fatal(err)
	}
	inner := controllerOf(t, spec)
	rec := NewRecorder(inner, nil)
	rec.Reset(16)
	ev := pipeline.CommitEvent{Cycle: 1, Seq: 1, PC: 0x1000}
	if avg := testing.AllocsPerRun(10_000, func() {
		ev.Cycle += 2
		ev.Seq++
		rec.OnCommit(ev)
	}); avg != 0 {
		t.Fatalf("disabled recorder allocates %v per commit, want 0", avg)
	}
}

// BenchmarkRecorderDisabled feeds commits through a nil-trace Recorder; CI's
// policy-search-smoke job fails if its allocs/op is ever above 0.
func BenchmarkRecorderDisabled(b *testing.B) {
	spec, err := Paper("distant-ilp")
	if err != nil {
		b.Fatal(err)
	}
	inner := controllerOf(b, spec)
	rec := NewRecorder(inner, nil)
	rec.Reset(16)
	ev := pipeline.CommitEvent{Cycle: 1, Seq: 1, PC: 0x1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Cycle += 2
		ev.Seq++
		rec.OnCommit(ev)
	}
}
