package mem

import "testing"

func TestICacheHitAfterFill(t *testing.T) {
	ic := NewICache(DefaultICacheConfig())
	if stall := ic.Fetch(0x1000); stall == 0 {
		t.Fatal("cold fetch hit")
	}
	if stall := ic.Fetch(0x1000); stall != 0 {
		t.Fatalf("warm fetch stalled %d", stall)
	}
	// Same 32-byte line.
	if stall := ic.Fetch(0x101c); stall != 0 {
		t.Fatal("same-line fetch missed")
	}
	if ic.Hits() != 2 || ic.Misses() != 1 {
		t.Fatalf("hits %d misses %d", ic.Hits(), ic.Misses())
	}
}

func TestICacheLineShift(t *testing.T) {
	ic := NewICache(DefaultICacheConfig())
	if ic.LineShift() != 5 {
		t.Fatalf("line shift %d for 32B lines", ic.LineShift())
	}
}

func TestICacheReset(t *testing.T) {
	ic := NewICache(DefaultICacheConfig())
	ic.Fetch(0x40)
	ic = NewICache(DefaultICacheConfig())
	if ic.Hits() != 0 || ic.Misses() != 0 {
		t.Fatal("a new cache starts with stats")
	}
	if ic.Fetch(0x40) == 0 {
		t.Fatal("a new cache starts warm")
	}
}

func TestTLBHitAfterWalk(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	if tlb.Translate(0x12345) == 0 {
		t.Fatal("cold translation hit")
	}
	if tlb.Translate(0x12345) != 0 {
		t.Fatal("warm translation walked")
	}
	// Same 8KB page.
	if tlb.Translate(0x12345^0x7ff) != 0 {
		t.Fatal("same-page translation walked")
	}
	if tlb.Hits() != 2 || tlb.Misses() != 1 {
		t.Fatalf("hits %d misses %d", tlb.Hits(), tlb.Misses())
	}
}

func TestTLBCapacityAndLRU(t *testing.T) {
	cfg := TLBConfig{Entries: 4, PageBytes: 8 << 10, WalkLatency: 30}
	tlb := NewTLB(cfg)
	page := func(i int) uint64 { return uint64(i) << 13 }
	for i := 0; i < 4; i++ {
		tlb.Translate(page(i))
	}
	tlb.Translate(page(0)) // page 0 is now MRU
	tlb.Translate(page(4)) // evicts LRU (page 1)
	if tlb.Translate(page(0)) != 0 {
		t.Fatal("MRU page evicted")
	}
	if tlb.Translate(page(1)) == 0 {
		t.Fatal("LRU page survived eviction")
	}
}

func TestTLBReset(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	tlb.Translate(0x4000)
	tlb = NewTLB(DefaultTLBConfig())
	if tlb.Hits()+tlb.Misses() != 0 {
		t.Fatal("a new TLB starts with stats")
	}
	if tlb.Translate(0x4000) == 0 {
		t.Fatal("a new TLB starts with entries")
	}
}

func TestTLBAddressZeroPage(t *testing.T) {
	// Page number 0 must be representable (entries store page+1).
	tlb := NewTLB(DefaultTLBConfig())
	if tlb.Translate(0) == 0 {
		t.Fatal("cold page-0 translation hit")
	}
	if tlb.Translate(8) != 0 {
		t.Fatal("page-0 retranslation walked")
	}
}
