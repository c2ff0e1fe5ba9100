package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 10000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %x vs %x", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical 64-bit outputs out of 1000", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := make([]uint64, 64)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseeded stream diverged at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 16, 1000} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %f too far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("Bool(%f) hit rate %f", p, got)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(13)
	f := r.Fork()
	// The fork must be deterministic given the parent state...
	r2 := New(13)
	f2 := r2.Fork()
	for i := 0; i < 100; i++ {
		if f.Uint64() != f2.Uint64() {
			t.Fatal("forked streams not reproducible")
		}
	}
	// ...and differ from the parent's continued stream.
	f3 := New(13).Fork()
	parent := New(13)
	parent.Uint64() // consume the fork draw
	diff := false
	for i := 0; i < 100; i++ {
		if f3.Uint64() != parent.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("fork mirrors parent stream")
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
