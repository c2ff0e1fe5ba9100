package core

import (
	"bytes"
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/snap"
)

// snapshot returns the bytes a saving codec writes for s.
func snapshot(t *testing.T, s snap.Stater) []byte {
	t.Helper()
	var buf bytes.Buffer
	sv := snap.NewSaver(&buf)
	s.State(sv)
	if err := sv.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStateRoundTrip: a warmed-up controller's snapshot, loaded into a
// fresh controller of the same configuration, saves back byte for byte, so
// a resumed run continues from exactly the saved decision state.
func TestStateRoundTrip(t *testing.T) {
	for _, mk := range []func() pipeline.Controller{
		func() pipeline.Controller { return NewExplore(ExploreConfig{InitialInterval: 1000}) },
		func() pipeline.Controller { return NewDistantILP(DistantILPConfig{}) },
		func() pipeline.Controller { return NewFineGrain(FineGrainConfig{}) },
	} {
		warm, fresh := mk(), mk()
		warm.Reset(16)
		fresh.Reset(16)
		// Two program phases, so phase-change and exploration state moves.
		feed(warm, 0, 40_000, uniformEvents(7, 3, 0.5, 0.2))
		feed(warm, 40_000, 40_000, uniformEvents(20, 2, 1.5, 0.8))
		want := snapshot(t, warm.(snap.Stater))
		ld := snap.NewLoader(bytes.NewReader(want))
		fresh.(snap.Stater).State(ld)
		ld.End()
		if err := ld.Err(); err != nil {
			t.Fatalf("%s: load: %v", warm.Name(), err)
		}
		if got := snapshot(t, fresh.(snap.Stater)); !bytes.Equal(got, want) {
			t.Errorf("%s: restored controller saves %d bytes that differ from the %d it loaded",
				warm.Name(), len(got), len(want))
		}
	}
}
