package bpred

import (
	"bytes"
	"testing"

	"clustersim/internal/rng"
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

// TestStateRoundTrip: a trained predictor's snapshot, loaded into a fresh
// predictor of the same configuration, saves back byte for byte: tables,
// histories, BTB, return-address stack and statistics all restore.
func TestStateRoundTrip(t *testing.T) {
	p, bank := MustNew(DefaultConfig()), MustNewBank(DefaultBankConfig())
	r := rng.New(5)
	for i := 0; i < 20_000; i++ {
		pc := uint64(r.Intn(4096)) * 4
		switch i % 8 {
		case 0:
			p.PredictCall(pc, pc+0x400)
		case 1:
			p.PredictReturn(pc + 4)
		default:
			p.PredictBranch(pc, r.Bool(0.6), pc+64)
		}
		bank.Update(pc, r.Intn(16), 16)
	}
	for _, c := range []struct {
		name        string
		warm, fresh snap.Stater
	}{
		{"predictor", p, MustNew(DefaultConfig())},
		{"bank predictor", bank, MustNewBank(DefaultBankConfig())},
	} {
		want := snapshot(t, c.warm)
		ld := snap.NewLoader(bytes.NewReader(want))
		c.fresh.State(ld)
		ld.End()
		if err := ld.Err(); err != nil {
			t.Fatalf("%s: load: %v", c.name, err)
		}
		if got := snapshot(t, c.fresh); !bytes.Equal(got, want) {
			t.Errorf("%s: restored predictor saves %d bytes that differ from the %d it loaded",
				c.name, len(got), len(want))
		}
	}
}
