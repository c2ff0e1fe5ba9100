package interconnect

import (
	"testing"
	"testing/quick"
)

// MustNewGrid is NewGrid but panics on error.
func MustNewGrid(n int, hopLatency int) *Grid {
	g, err := NewGrid(n, hopLatency)
	if err != nil {
		panic(err)
	}
	return g
}

func TestRingHops(t *testing.T) {
	r := MustNewRing(16, 1)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 8, 8}, {0, 9, 7}, {0, 15, 1}, {3, 1, 2}, {15, 0, 1},
	}
	for _, c := range cases {
		if got := r.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRingWorstCaseHops(t *testing.T) {
	// Paper §2.3: 16-cluster ring has maximum 8 hops.
	r := MustNewRing(16, 1)
	max := 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if h := r.Hops(a, b); h > max {
				max = h
			}
		}
	}
	if max != 8 {
		t.Fatalf("ring worst case %d hops, want 8", max)
	}
}

func TestGridWorstCaseHops(t *testing.T) {
	// Paper §2.3: 16-cluster grid has maximum 6 hops.
	g := MustNewGrid(16, 1)
	max := 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if h := g.Hops(a, b); h > max {
				max = h
			}
		}
	}
	if max != 6 {
		t.Fatalf("grid worst case %d hops, want 6", max)
	}
}

func TestHopsSymmetricNonNegative(t *testing.T) {
	r := MustNewRing(16, 1)
	g := MustNewGrid(16, 1)
	f := func(a, b uint8) bool {
		ai, bi := int(a%16), int(b%16)
		for _, n := range []Network{r, g} {
			h := n.Hops(ai, bi)
			if h < 0 || h != n.Hops(bi, ai) {
				return false
			}
			if (ai == bi) != (h == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendLatencyNoContention(t *testing.T) {
	r := MustNewRing(16, 1)
	if got := r.Send(100, 0, 2); got != 102 {
		t.Errorf("ring send 2 hops arrived at %d, want 102", got)
	}
	if got := r.Send(200, 5, 5); got != 200 {
		t.Errorf("self send should be free, got %d", got)
	}
	g := MustNewGrid(16, 1)
	if got := g.Send(100, 0, 5); got != 102 { // (0,0)->(1,1): 2 hops
		t.Errorf("grid send arrived at %d, want 102", got)
	}
}

func TestSendHopLatencyScaling(t *testing.T) {
	r := MustNewRing(16, 2)
	if got := r.Send(10, 0, 3); got != 16 { // 3 hops x 2 cycles
		t.Errorf("arrival %d, want 16", got)
	}
}

func TestRingContention(t *testing.T) {
	r := MustNewRing(16, 1)
	// Two messages leaving node 0 clockwise at the same cycle must
	// serialize on the first link.
	t1 := r.Send(10, 0, 1)
	t2 := r.Send(10, 0, 1)
	if t1 != 11 || t2 != 12 {
		t.Fatalf("got %d and %d, want 11 and 12", t1, t2)
	}
	// Opposite directions do not conflict.
	r = MustNewRing(16, 1)
	a := r.Send(10, 0, 1)  // clockwise
	b := r.Send(10, 0, 15) // counter-clockwise
	if a != 11 || b != 11 {
		t.Fatalf("independent directions serialized: %d %d", a, b)
	}
}

func TestGridContention(t *testing.T) {
	g := MustNewGrid(16, 1)
	t1 := g.Send(10, 0, 1)
	t2 := g.Send(10, 0, 2)
	if t1 != 11 {
		t.Fatalf("first arrival %d", t1)
	}
	if t2 != 13 { // delayed 1 on shared first link, then one more hop
		t.Fatalf("second arrival %d, want 13", t2)
	}
}

func TestOutOfOrderReservations(t *testing.T) {
	// A transfer reserved far in the future must not delay one wanted
	// earlier (the calendar property the scalar next-free model lacked).
	r := MustNewRing(16, 1)
	late := r.Send(1000, 0, 1)
	early := r.Send(10, 0, 1)
	if late != 1001 {
		t.Fatalf("late arrival %d", late)
	}
	if early != 11 {
		t.Fatalf("early transfer delayed to %d by a future reservation", early)
	}
}

func TestArrivalMonotonicity(t *testing.T) {
	// Arrival is never before ready + hops*hopLat.
	f := func(ready uint32, a, b uint8) bool {
		r := MustNewRing(16, 1)
		ai, bi := int(a%16), int(b%16)
		arr := r.Send(uint64(ready), ai, bi)
		return arr >= uint64(ready)+uint64(r.Hops(ai, bi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(ready uint32, a, b uint8) bool {
		gr := MustNewGrid(16, 1)
		ai, bi := int(a%16), int(b%16)
		arr := gr.Send(uint64(ready), ai, bi)
		return arr >= uint64(ready)+uint64(gr.Hops(ai, bi))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastCoversActivePrefix(t *testing.T) {
	r := MustNewRing(16, 1)
	// Broadcast from 0 to actives {0..3}: worst leg is 3 hops one way or
	// split across directions; arrival must be >= 2 (ceil(3/2) with both
	// directions) and >= unicast max if single-direction.
	got := r.Broadcast(10, 0, 4)
	if got < 12 || got > 13 {
		t.Fatalf("broadcast last arrival %d, want 12..13", got)
	}
	if r.Broadcast(100, 0, 1) != 100 {
		t.Fatal("broadcast to self-only set should be free")
	}
	g := MustNewGrid(16, 1)
	if gt := g.Broadcast(10, 0, 16); gt < 16 {
		t.Fatalf("grid broadcast too fast: %d", gt)
	}
}

func TestStatsAccumulate(t *testing.T) {
	r := MustNewRing(16, 1)
	r.Send(0, 0, 4)
	r.Send(0, 0, 4)
	s := r.Stats()
	if s.Transfers != 2 || s.Hops != 8 {
		t.Fatalf("stats %+v", s)
	}
	if s.AvgLatency() < 4 {
		t.Fatalf("avg latency %f < 4", s.AvgLatency())
	}
	r = MustNewRing(16, 1)
	if r.Stats() != (Stats{}) {
		t.Fatal("a new ring starts with stats")
	}
	if (Stats{}).AvgLatency() != 0 {
		t.Fatal("empty stats AvgLatency should be 0")
	}
}

func TestResetClearsReservations(t *testing.T) {
	r := MustNewRing(16, 1)
	for i := 0; i < 100; i++ {
		r.Send(0, 0, 1)
	}
	r = MustNewRing(16, 1)
	if got := r.Send(5, 0, 1); got != 6 {
		t.Fatalf("a new ring's send arrived %d, want 6", got)
	}
}

func TestConstructorErrors(t *testing.T) {
	for _, f := range []func() error{
		func() error { _, err := NewRing(0, 1); return err },
		func() error { _, err := NewRing(4, 0); return err },
		func() error { _, err := NewGrid(0, 1); return err },
		func() error { _, err := NewGrid(4, 0); return err },
	} {
		if f() == nil {
			t.Error("expected error for invalid topology parameters")
		}
	}
	// The Must variants keep the old panic behaviour for static call sites.
	for _, f := range []func(){
		func() { MustNewRing(0, 1) },
		func() { MustNewGrid(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic from Must constructor")
				}
			}()
			f()
		}()
	}
}

func TestGridDimensions(t *testing.T) {
	g := MustNewGrid(16, 1)
	if g.w != 4 || g.h != 4 {
		t.Fatalf("16-node grid laid out %dx%d, want 4x4", g.w, g.h)
	}
	g2 := MustNewGrid(2, 1)
	if g2.Hops(0, 1) != 1 {
		t.Fatal("2-node grid adjacency wrong")
	}
}

func TestRingSmallSizes(t *testing.T) {
	for n := 1; n <= 5; n++ {
		r := MustNewRing(n, 1)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				arr := r.Send(0, a, b)
				if arr < uint64(r.Hops(a, b)) {
					t.Fatalf("n=%d send(%d,%d) arrival %d < hops", n, a, b, arr)
				}
			}
		}
	}
}

func TestReserveEvery(t *testing.T) {
	cal := NewCalendar()
	start := cal.ReserveEvery(10, 3)
	if start != 10 {
		t.Fatalf("start %d", start)
	}
	// Cycles 10..12 are booked; the next request at 10 lands at 13.
	if got := cal.Reserve(10); got != 13 {
		t.Fatalf("follow-up landed at %d, want 13", got)
	}
	// busy <= 1 behaves like Reserve.
	cal2 := NewCalendar()
	if cal2.ReserveEvery(5, 1) != 5 {
		t.Fatal("busy=1 mis-reserved")
	}
}

func TestClustersAccessors(t *testing.T) {
	if MustNewRing(7, 1).Clusters() != 7 {
		t.Fatal("ring Clusters")
	}
	if MustNewGrid(9, 1).Clusters() != 9 {
		t.Fatal("grid Clusters")
	}
}

func TestGridResetAndStats(t *testing.T) {
	g := MustNewGrid(16, 1)
	g.Send(10, 0, 5)
	if g.Stats().Transfers != 1 {
		t.Fatalf("stats %+v", g.Stats())
	}
	g = MustNewGrid(16, 1)
	if g.Stats() != (Stats{}) {
		t.Fatal("a new grid starts with stats")
	}
	if got := g.Send(10, 0, 1); got != 11 {
		t.Fatalf("a new grid's send arrived %d, want 11", got)
	}
}

func TestRingBroadcastFromMiddleOfPrefix(t *testing.T) {
	// A broadcast from a node with active peers on both sides exercises
	// both ring directions.
	r := MustNewRing(16, 1)
	got := r.Broadcast(10, 2, 6) // peers 0,1 (ccw) and 3,4,5 (cw)
	if got < 12 || got > 14 {
		t.Fatalf("two-sided broadcast arrival %d", got)
	}
	s := r.Stats()
	if s.Transfers != 2 { // one leg per direction
		t.Fatalf("broadcast transfers %d", s.Transfers)
	}
}

// TestGridAllPairsAllSizes sends between every node pair at every cluster
// count up to 16. Regression for a fuzzer-found crash: non-square layouts
// (e.g. 8 nodes on a 3x3 grid) route through unoccupied router positions,
// which must still have links.
func TestGridAllPairsAllSizes(t *testing.T) {
	for n := 1; n <= 16; n++ {
		g := MustNewGrid(n, 1)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				arr := g.Send(0, a, b)
				if arr < uint64(g.Hops(a, b)) {
					t.Fatalf("n=%d %d->%d arrived %d before %d hops elapsed", n, a, b, arr, g.Hops(a, b))
				}
			}
		}
		if err := g.Stats().Conserved(Stats{}, g.Diameter()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
