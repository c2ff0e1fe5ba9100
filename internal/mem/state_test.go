package mem

import (
	"bytes"
	"testing"

	"clustersim/internal/rng"
	"clustersim/internal/snap"
)

// snapshot returns s's SaveState bytes.
func snapshot(t *testing.T, s snap.Stater) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	s.SaveState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStateRoundTrip: each component's snapshot, taken mid-run and loaded
// into a freshly constructed component of the same configuration, saves
// back byte for byte. The accesses leave L2 misses in flight, so the
// pendingMiss map is part of what round-trips.
func TestStateRoundTrip(t *testing.T) {
	type pair struct {
		name        string
		warm, fresh snap.Stater
	}
	c, _ := newCentralSys()
	cFresh, _ := newCentralSys()
	d, _ := newDistSys()
	dFresh, _ := newDistSys()
	d.SetActive(8)
	ic, tlb := NewICache(DefaultICacheConfig()), NewTLB(DefaultTLBConfig())
	r := rng.New(3)
	for i := uint64(0); i < 20_000; i++ {
		addr := r.Uint64() % (4 << 20)
		cluster := int(i % 16)
		if i%4 == 0 {
			c.StoreCommit(i, cluster, addr)
			d.StoreCommit(i, cluster, addr)
		} else {
			c.Load(i, cluster, addr)
			d.Load(i, cluster, addr)
		}
		ic.Fetch(addr)
		tlb.Translate(addr)
	}
	if len(c.l2.pendingMiss) == 0 {
		t.Fatal("no L2 miss in flight: the warm-up does not exercise the MSHR map")
	}
	for _, p := range []pair{
		{"central", c, cFresh},
		{"dist", d, dFresh},
		{"icache", ic, NewICache(DefaultICacheConfig())},
		{"tlb", tlb, NewTLB(DefaultTLBConfig())},
	} {
		want := snapshot(t, p.warm)
		rd := snap.NewReader(bytes.NewReader(want))
		p.fresh.LoadState(rd)
		rd.End()
		if err := rd.Err(); err != nil {
			t.Fatalf("%s: LoadState: %v", p.name, err)
		}
		if got := snapshot(t, p.fresh); !bytes.Equal(got, want) {
			t.Errorf("%s: restored component saves %d bytes that differ from the %d it loaded",
				p.name, len(got), len(want))
		}
	}
}
