package policy

import (
	"reflect"
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/rng"
)

// synthEvents builds a deterministic commit stream with a monotone clock and
// enough branch/memory/distant variety to exercise every controller family.
func synthEvents(n int, seed uint64) []pipeline.CommitEvent {
	r := rng.New(seed)
	evs := make([]pipeline.CommitEvent, n)
	cycle := uint64(0)
	for i := range evs {
		cycle += 1 + uint64(r.Intn(3))
		isBranch := r.Bool(0.2)
		evs[i] = pipeline.CommitEvent{
			Cycle:        cycle,
			Seq:          uint64(i + 1),
			PC:           0x1000 + uint64(r.Intn(64))*4,
			IsBranch:     isBranch,
			IsCall:       isBranch && r.Bool(0.2),
			IsMem:        !isBranch && r.Bool(0.4),
			Distant:      r.Bool(0.5),
			Mispredicted: isBranch && r.Bool(0.1),
		}
		if evs[i].IsCall {
			evs[i].IsReturn = false
		} else if isBranch {
			evs[i].IsReturn = r.Bool(0.2)
		}
	}
	return evs
}

// recordSynthetic drives spec's controller over a synthetic stream through a
// Recorder and returns the captured trace.
func recordSynthetic(t *testing.T, spec *Spec, evs []pipeline.CommitEvent) *DecisionTrace {
	t.Helper()
	trace := &DecisionTrace{}
	rec := NewRecorder(controllerOf(t, spec), trace)
	rec.Reset(16)
	for _, ev := range evs {
		rec.OnCommit(ev)
	}
	return trace
}

// controllerOf returns a fresh controller for a dynamic spec.
func controllerOf(tb testing.TB, s *Spec) pipeline.Controller {
	tb.Helper()
	_, ctrl, _, err := s.Instantiate(pipeline.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return ctrl
}

func dynamicSpecs(t *testing.T) []*Spec {
	t.Helper()
	var specs []*Spec
	for _, name := range []string{"explore", "distant-ilp", "fine-grain"} {
		s, err := Paper(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

func TestRecorderCapturesStreamAndDecisions(t *testing.T) {
	evs := synthEvents(30_000, 11)
	for _, spec := range dynamicSpecs(t) {
		trace := recordSynthetic(t, spec, evs)
		if trace.Len() != len(evs) {
			t.Fatalf("%s: recorded %d events, want %d", spec.Name, trace.Len(), len(evs))
		}
		if len(trace.Decisions) == 0 {
			t.Fatalf("%s: no decisions recorded over %d events", spec.Name, len(evs))
		}
		for i, ev := range evs {
			if got := trace.Event(i); got != ev {
				t.Fatalf("%s: event %d reconstructed as %+v, want %+v", spec.Name, i, got, ev)
			}
		}
		// Decisions must be deduplicated: consecutive entries differ.
		for i := 1; i < len(trace.Decisions); i++ {
			if trace.Decisions[i].Active == trace.Decisions[i-1].Active {
				t.Fatalf("%s: decisions %d and %d both request %d clusters",
					spec.Name, i-1, i, trace.Decisions[i].Active)
			}
		}
	}
}

func TestSelfReplayReproducesDecisions(t *testing.T) {
	evs := synthEvents(30_000, 11)
	for _, spec := range dynamicSpecs(t) {
		trace := recordSynthetic(t, spec, evs)
		rr, err := trace.Replay(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr.Decisions, trace.Decisions) {
			t.Fatalf("%s: self-replay diverged:\nrecorded %v\nreplayed %v",
				spec.Name, trace.Decisions, rr.Decisions)
		}
		if trace.Agreement(trace.Decisions, rr.Decisions) != 1 {
			t.Fatalf("%s: self-agreement below 1", spec.Name)
		}
		if rr.FinalActive != trace.Decisions[len(trace.Decisions)-1].Active {
			t.Fatalf("%s: FinalActive %d, want %d", spec.Name, rr.FinalActive,
				trace.Decisions[len(trace.Decisions)-1].Active)
		}
	}
}

// TestStaticRecordAndReplay: a Recorder with no inner controller records a
// static machine's stream under the trace's label and requests nothing,
// and a static spec replays as the single decision N at the first commit.
func TestStaticRecordAndReplay(t *testing.T) {
	evs := synthEvents(5_000, 9)
	trace := &DecisionTrace{Policy: "static-4"}
	rec := NewRecorder(nil, trace)
	rec.Reset(16)
	for _, ev := range evs {
		if want := rec.OnCommit(ev); want != 0 {
			t.Fatalf("static recorder requested %d clusters", want)
		}
	}
	if rec.Name() != "static-4" || trace.Len() != len(evs) || len(trace.Decisions) != 0 {
		t.Fatalf("static recording %q: %d events, %d decisions", rec.Name(), trace.Len(), len(trace.Decisions))
	}
	s, err := Paper("static-4")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := trace.Replay(s)
	if err != nil {
		t.Fatal(err)
	}
	want := ReplayResult{Policy: "static-4", FinalActive: 4,
		Decisions: []Decision{{Seq: evs[0].Seq, Cycle: evs[0].Cycle, Active: 4}}}
	if !reflect.DeepEqual(rr, want) {
		t.Fatalf("static replay %+v, want %+v", rr, want)
	}
}

func TestAgreementStepFunctions(t *testing.T) {
	trace := &DecisionTrace{}
	for i := 1; i <= 10; i++ {
		trace.record(pipeline.CommitEvent{Cycle: uint64(i), Seq: uint64(i)}, 0)
	}
	a := []Decision{{Seq: 1, Active: 16}}
	b := []Decision{{Seq: 1, Active: 16}, {Seq: 6, Active: 4}}
	// a and b agree on seqs 1..5 (16 clusters) and disagree on 6..10.
	if got := trace.Agreement(a, b); got != 0.5 {
		t.Fatalf("Agreement = %v, want 0.5", got)
	}
	if got := trace.Agreement(b, b); got != 1 {
		t.Fatalf("self Agreement = %v, want 1", got)
	}
}

func TestReplayChurn(t *testing.T) {
	rr := ReplayResult{Changes: 4}
	if got := rr.ChurnPerMInstr(2_000_000); got != 2 {
		t.Fatalf("ChurnPerMInstr = %v, want 2", got)
	}
	if got := rr.ChurnPerMInstr(0); got != 0 {
		t.Fatalf("ChurnPerMInstr(0 instrs) = %v, want 0", got)
	}
}

func TestRecorderNilTracePassthrough(t *testing.T) {
	spec, err := Paper("distant-ilp")
	if err != nil {
		t.Fatal(err)
	}
	inner := controllerOf(t, spec)
	ref := controllerOf(t, spec)
	rec := NewRecorder(inner, nil)
	rec.Reset(16)
	ref.Reset(16)
	if rec.Name() != ref.Name() {
		t.Fatalf("Recorder name %q, want %q", rec.Name(), ref.Name())
	}
	for _, ev := range synthEvents(8_000, 5) {
		if got, want := rec.OnCommit(ev), ref.OnCommit(ev); got != want {
			t.Fatalf("seq %d: recorder returned %d, bare controller %d", ev.Seq, got, want)
		}
	}
	if rec.Trace() != nil {
		t.Fatal("nil-trace recorder grew a trace")
	}
}
