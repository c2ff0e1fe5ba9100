package mem

import (
	"testing"
	"testing/quick"

	"clustersim/internal/interconnect"
)

// MustNew is New but panics on configuration error.
func MustNew(cfg Config, net interconnect.Network) System {
	s, err := New(cfg, net)
	if err != nil {
		panic(err)
	}
	return s
}

func newCentralSys() (*central, interconnect.Network) {
	net := interconnect.MustNewRing(16, 1)
	return newCentral(DefaultCentralConfig(16), net), net
}

func newDistSys() (*dist, interconnect.Network) {
	net := interconnect.MustNewRing(16, 1)
	return newDist(DefaultDistConfig(16), net), net
}

func TestArrayHitAfterMiss(t *testing.T) {
	a := newArray(1024, 32, 2)
	hit, _ := a.access(0x100, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _ = a.access(0x100, false)
	if !hit {
		t.Fatal("second access missed")
	}
	// Same line, different word.
	hit, _ = a.access(0x110, false)
	if !hit {
		t.Fatal("same-line access missed")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	// 2 ways, 1 set: 64-byte array with 32-byte lines.
	a := newArray(64, 32, 2)
	a.access(0x0, false)   // line A
	a.access(0x100, false) // line B
	a.access(0x0, false)   // touch A; B is now LRU
	a.access(0x200, false) // line C evicts B
	if hit, _ := a.access(0x0, false); !hit {
		t.Fatal("LRU evicted the recently used line")
	}
	if hit, _ := a.access(0x100, false); hit {
		t.Fatal("victim line still present")
	}
}

func TestArrayDirtyWriteback(t *testing.T) {
	a := newArray(64, 32, 2)
	a.access(0x0, true) // dirty
	a.access(0x100, false)
	a.access(0x200, false) // evicts dirty 0x0
	_, wb := a.access(0x300, false)
	_ = wb
	// Refill 0x0's set until the dirty line must go.
	found := false
	b := newArray(64, 32, 2)
	b.access(0x0, true)
	b.access(0x100, false)
	if _, wb := b.access(0x200, false); wb {
		found = true
	}
	if !found {
		t.Fatal("dirty eviction did not report writeback")
	}
}

func TestArrayFlushCountsDirty(t *testing.T) {
	a := newArray(1024, 32, 2)
	a.access(0x0, true)
	a.access(0x40, true)
	a.access(0x80, false)
	if wb := a.flush(); wb != 2 {
		t.Fatalf("flush wrote back %d lines, want 2", wb)
	}
	if a.occupancy() != 0 {
		t.Fatal("flush left valid lines")
	}
	if wb := a.flush(); wb != 0 {
		t.Fatalf("second flush wrote back %d", wb)
	}
}

// Property: occupancy never exceeds capacity regardless of access pattern.
func TestArrayOccupancyBounded(t *testing.T) {
	f := func(addrs []uint16) bool {
		a := newArray(512, 32, 2)
		capacity := a.sets * a.ways
		for _, ad := range addrs {
			a.access(uint64(ad), ad%3 == 0)
			if a.occupancy() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCentralLoadLatencyCluster0(t *testing.T) {
	c, _ := newCentralSys()
	// Warm the line.
	c.Load(0, 0, 0x1000)
	done, hit := c.Load(1000, 0, 0x1000)
	if !hit {
		t.Fatal("warm load missed")
	}
	// From cluster 0: no hops, bank free, 6-cycle RAM.
	if done != 1006 {
		t.Fatalf("cluster-0 hit latency %d, want 1006", done)
	}
}

func TestCentralLoadLatencyGrowsWithDistance(t *testing.T) {
	// §2.1: cluster "3" (2 hops away on the ring) pays 4 extra cycles.
	c, _ := newCentralSys()
	c.Load(0, 0, 0x2000)
	d0, _ := c.Load(1000, 0, 0x2000)
	c2, _ := newCentralSys()
	c2.Load(0, 0, 0x2000)
	d2, _ := c2.Load(1000, 2, 0x2000)
	if d2-1000 != (d0-1000)+4 {
		t.Fatalf("2-hop cluster load cost %d, cluster-0 cost %d; want +4", d2-1000, d0-1000)
	}
}

func TestCentralMissGoesToL2(t *testing.T) {
	c, _ := newCentralSys()
	done, hit := c.Load(0, 0, 0x4000)
	if hit {
		t.Fatal("cold load hit")
	}
	// Must include L1 lookup + L2 latency + memory latency (cold L2 too).
	if done < 6+25+160 {
		t.Fatalf("cold miss returned in %d cycles", done)
	}
	s := c.Stats()
	if s.L1Misses != 1 || s.L2Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCentralL2HitFasterThanMemory(t *testing.T) {
	c, _ := newCentralSys()
	c.Load(0, 0, 0x8000) // cold: goes to memory, fills L2 and L1
	// Evict from tiny L1 by touching many conflicting lines; then re-load.
	for i := 0; i < 4096; i++ {
		c.Load(uint64(10000+100*i), 0, uint64(0x100000+i*32))
	}
	base := uint64(10_000_000)
	done, hit := c.Load(base, 0, 0x8000)
	if hit {
		t.Skip("line survived L1 sweep; geometry changed")
	}
	if done-base > 100 {
		t.Fatalf("L2 hit took %d cycles", done-base)
	}
}

func TestCentralBankConflict(t *testing.T) {
	c, _ := newCentralSys()
	c.Load(0, 0, 0x1000)
	c.Load(0, 0, 0x1000+8*4) // same bank (stride 4 words), conflicting port
	a, _ := c.Load(1000, 0, 0x1000)
	b, _ := c.Load(1000, 0, 0x1000+8*4)
	if b != a+1 {
		t.Fatalf("same-bank accesses finished at %d and %d; want serialization by 1", a, b)
	}
	// Different banks proceed in parallel.
	c2, _ := newCentralSys()
	c2.Load(0, 0, 0x1000)
	c2.Load(0, 0, 0x1008)
	x, _ := c2.Load(1000, 0, 0x1000)
	y, _ := c2.Load(1000, 0, 0x1008)
	if x != y {
		t.Fatalf("different banks serialized: %d vs %d", x, y)
	}
}

func TestCentralFreeLoadComm(t *testing.T) {
	c, _ := newCentralSys()
	c.SetFreeLoadComm(true)
	c.Load(0, 8, 0x1000)
	done, _ := c.Load(1000, 8, 0x1000) // 8 hops away but free
	if done != 1006 {
		t.Fatalf("free-comm load latency %d, want 1006", done)
	}
}

func TestCentralBankMapping(t *testing.T) {
	c, _ := newCentralSys()
	// Word-interleaved: consecutive 8-byte words rotate across 4 banks.
	for w := 0; w < 8; w++ {
		if got := c.Bank(uint64(w * 8)); got != w%4 {
			t.Fatalf("Bank(word %d) = %d, want %d", w, got, w%4)
		}
	}
	if c.HomeCluster(0xdeadbeef) != 0 {
		t.Fatal("centralized home cluster must be 0")
	}
}

func TestDistHomeClusterFollowsActiveBanks(t *testing.T) {
	d, _ := newDistSys()
	addr := uint64(13 * 8) // word 13: bank 13 of 16
	if d.Bank(addr) != 13 {
		t.Fatalf("full bank %d", d.Bank(addr))
	}
	if d.HomeCluster(addr) != 13 {
		t.Fatalf("16-active home %d", d.HomeCluster(addr))
	}
	d.SetActive(4)
	if d.HomeCluster(addr) != 13&3 {
		t.Fatalf("4-active home %d, want %d", d.HomeCluster(addr), 13&3)
	}
	// Low-order-bits property (§5): the masked full prediction equals the
	// active-bank home for every address.
	f := func(a uint32) bool {
		return d.Bank(uint64(a))&3 == d.HomeCluster(uint64(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistLocalVsRemoteLoad(t *testing.T) {
	d, _ := newDistSys()
	addr := uint64(5 * 8) // home bank 5
	d.Load(0, 5, addr)    // warm
	local, hit := d.Load(1000, 5, addr)
	if !hit {
		t.Fatal("warm load missed")
	}
	if local != 1004 { // 4-cycle bank, no hops
		t.Fatalf("local load latency %d, want 1004", local)
	}
	d2, _ := newDistSys()
	d2.Load(0, 5, addr)
	remote, _ := d2.Load(1000, 7, addr) // 2 hops each way
	if remote != 1004+4 {
		t.Fatalf("remote load latency %d, want 1008", remote)
	}
}

func TestDistMissPaysL2Trip(t *testing.T) {
	d, _ := newDistSys()
	addr := uint64(8 * 8) // home bank 8, farthest from L2 at cluster 0
	done, hit := d.Load(0, 8, addr)
	if hit {
		t.Fatal("cold load hit")
	}
	// 4 (bank) + 8 hops to L2 + 25 + 160 + 8 hops back, at least.
	if done < 4+8+25+160+8 {
		t.Fatalf("far-bank cold miss done at %d", done)
	}
}

func TestDistFlushAndReconfigure(t *testing.T) {
	d, _ := newDistSys()
	// Dirty a few lines via stores.
	for i := 0; i < 10; i++ {
		d.StoreCommit(uint64(100*i), 0, uint64(i*8*16)) // all map to bank 0
	}
	done, wb := d.Flush(10_000)
	if wb == 0 {
		t.Fatal("flush found no dirty lines")
	}
	if done <= 10_000 {
		t.Fatal("flush took no time")
	}
	s := d.Stats()
	if s.Flushes != 1 || s.FlushWritebacks != wb {
		t.Fatalf("stats %+v", s)
	}
	d.SetActive(4)
	// After the flush everything misses again.
	_, hit := d.Load(done, 0, 0)
	if hit {
		t.Fatal("post-flush load hit")
	}
}

func TestDistSetActiveClamps(t *testing.T) {
	d, _ := newDistSys()
	d.SetActive(0)
	if d.activeBanks != 1 {
		t.Fatalf("clamp low: %d", d.activeBanks)
	}
	d.SetActive(99)
	if d.activeBanks != 16 {
		t.Fatalf("clamp high: %d", d.activeBanks)
	}
}

func TestMissMerging(t *testing.T) {
	c, _ := newCentralSys()
	// Two loads to the same L2 line back-to-back: the second should merge
	// rather than pay a fresh memory access.
	d1, _ := c.Load(0, 0, 0x40000)
	d2, _ := c.Load(1, 0, 0x40020) // same 64B L2 line, different L1 line
	if d2 > d1+64 {
		t.Fatalf("second miss (%d) did not merge with first (%d)", d2, d1)
	}
	if c.Stats().L2MergedMisses == 0 {
		t.Fatal("no merged misses recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	net := interconnect.MustNewRing(16, 1)
	bad := DefaultCentralConfig(16)
	bad.L1Banks = 3
	if _, err := New(bad, net); err == nil {
		t.Fatal("non-power-of-two banks accepted")
	}
	bad = DefaultCentralConfig(16)
	bad.MemLatency = 0
	if _, err := New(bad, net); err == nil {
		t.Fatal("zero MemLatency accepted")
	}
	bad = DefaultCentralConfig(0)
	if _, err := New(bad, net); err == nil {
		t.Fatal("zero clusters accepted")
	}
}

func TestStatsMissRate(t *testing.T) {
	if (Stats{}).L1MissRate() != 0 {
		t.Fatal("empty miss rate not 0")
	}
	s := Stats{L1Hits: 3, L1Misses: 1}
	if s.L1MissRate() != 0.25 {
		t.Fatalf("miss rate %f", s.L1MissRate())
	}
}

func TestCentralStoreCommit(t *testing.T) {
	c, _ := newCentralSys()
	// A committed store warms the line; a later load hits and the line
	// is dirty (evicting it writes back).
	c.StoreCommit(100, 0, 0x5000)
	if _, hit := c.Load(200, 0, 0x5000); !hit {
		t.Fatal("load after store missed")
	}
	s := c.Stats()
	if s.Stores != 1 || s.Loads != 1 {
		t.Fatalf("stats %+v", s)
	}
	// Store from a distant cluster pays the network trip: its bank access
	// lands later than a same-cycle local store's.
	c2, _ := newCentralSys()
	c2.StoreCommit(100, 8, 0x6000)
	c2.StoreCommit(100, 0, 0x6000)
	if c2.Stats().Stores != 2 {
		t.Fatal("stores not counted")
	}
}

func TestCentralStoreMissGoesToL2(t *testing.T) {
	c, _ := newCentralSys()
	c.StoreCommit(50, 0, 0x9000)
	s := c.Stats()
	if s.L1Misses != 1 || s.L2Misses != 1 {
		t.Fatalf("cold store stats %+v", s)
	}
}

func TestCentralFlushWritesBackDirty(t *testing.T) {
	c, _ := newCentralSys()
	c.StoreCommit(10, 0, 0x100)
	c.StoreCommit(20, 0, 0x200)
	done, wb := c.Flush(1000)
	if wb != 2 {
		t.Fatalf("flush wrote back %d lines, want 2", wb)
	}
	if done <= 1000 {
		t.Fatal("flush free")
	}
	if _, hit := c.Load(done, 0, 0x100); hit {
		t.Fatal("line survived flush")
	}
}

func TestCentralSetActiveNoop(t *testing.T) {
	c, _ := newCentralSys()
	c.Load(0, 0, 0x42*8)
	before := c.HomeCluster(0x42 * 8)
	c.SetActive(4)
	if c.HomeCluster(0x42*8) != before {
		t.Fatal("centralized SetActive changed mapping")
	}
}

func TestArrayLookupDoesNotAllocate(t *testing.T) {
	a := newArray(1024, 32, 2)
	if a.lookup(0x40) {
		t.Fatal("cold lookup hit")
	}
	if a.occupancy() != 0 {
		t.Fatal("lookup allocated")
	}
	a.access(0x40, false)
	if !a.lookup(0x40) {
		t.Fatal("warm lookup missed")
	}
}

func TestL2WritebackOnL1Eviction(t *testing.T) {
	// Dirty L1 lines written back on eviction must occupy the L2.
	c, _ := newCentralSys()
	// Dirty a line, then sweep its set until it is evicted.
	c.StoreCommit(0, 0, 0x0)
	base := uint64(1000)
	for i := 1; i < 4096; i++ {
		c.Load(base+uint64(100*i), 0, uint64(i)*32*1024) // same set, new tags
	}
	if c.Stats().L1Writebacks == 0 {
		t.Fatal("no L1 writebacks recorded")
	}
}

func TestL2PendingMissGC(t *testing.T) {
	// Flood the L2 with distinct-line misses to force the pendingMiss
	// map through its garbage-collection path.
	c, _ := newCentralSys()
	for i := 0; i < 5000; i++ {
		c.Load(uint64(i*400), 0, uint64(0x100000+i*64))
	}
	if c.Stats().L2Misses == 0 {
		t.Fatal("no L2 misses")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	bad := DefaultCentralConfig(16)
	bad.L1Size = 0
	MustNew(bad, interconnect.MustNewRing(16, 1))
}
