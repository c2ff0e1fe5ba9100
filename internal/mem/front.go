package mem

// Front-end and translation structures from the paper's Table 1 that sit
// outside the L1-data hierarchy: the instruction cache and the TLBs.

// ICache is the L1 instruction cache (Table 1: 32KB 2-way). The front end
// probes it once per fetched cache line; a miss stalls fetch for the L2
// round trip. Timing only — instruction bytes are never stored.
type ICache struct {
	arr         *array
	lineShift   uint   //simlint:nostate geometry, rebuilt by the constructor
	missLatency uint64 //simlint:nostate configuration, rebuilt by the constructor
	hits        uint64
	misses      uint64
}

// ICacheConfig sizes an ICache.
type ICacheConfig struct {
	Size        int
	Line        int
	Ways        int
	MissLatency int
}

// DefaultICacheConfig returns Table 1's 32KB 2-way instruction cache with
// an L2-hit fill latency.
func DefaultICacheConfig() ICacheConfig {
	return ICacheConfig{Size: 32 << 10, Line: 32, Ways: 2, MissLatency: 25}
}

// NewICache builds an ICache.
func NewICache(cfg ICacheConfig) *ICache {
	shift := uint(0)
	for 1<<shift < cfg.Line {
		shift++
	}
	return &ICache{
		arr:         newArray(cfg.Size, cfg.Line, cfg.Ways),
		lineShift:   shift,
		missLatency: uint64(cfg.MissLatency),
	}
}

// LineShift returns log2 of the line size (the front end uses it to detect
// line crossings).
func (c *ICache) LineShift() uint { return c.lineShift }

// Fetch probes the cache for the line holding pc. On a hit it returns 0;
// on a miss it returns the stall in cycles.
//
// The set index is hashed: the synthetic workloads lay basic blocks out at
// large power-of-two strides (real linkers pack code contiguously), which
// would otherwise alias every block into a handful of sets.
func (c *ICache) Fetch(pc uint64) uint64 {
	line := pc >> c.lineShift
	hashed := (line ^ line>>7 ^ line>>15) << c.lineShift
	hit, _ := c.arr.access(hashed, false)
	if hit {
		c.hits++
		return 0
	}
	c.misses++
	return c.missLatency
}

// Hits and Misses return the probe counts.
func (c *ICache) Hits() uint64   { return c.hits }
func (c *ICache) Misses() uint64 { return c.misses }

// TLB is a translation lookaside buffer (Table 1: 128 entries, 8KB pages),
// modelled as a fully-associative LRU array of page numbers. A miss costs a
// fixed page-walk latency.
type TLB struct {
	pageShift uint     //simlint:nostate geometry, rebuilt by the constructor
	walk      uint64   //simlint:nostate configuration, rebuilt by the constructor
	entries   []uint64 // page numbers, +1 so zero means empty
	age       []uint64
	clock     uint64
	hits      uint64
	misses    uint64
}

// TLBConfig sizes a TLB.
type TLBConfig struct {
	Entries     int
	PageBytes   int
	WalkLatency int
}

// DefaultTLBConfig returns Table 1's 128-entry, 8KB-page TLB with a
// 30-cycle walk (a software-walk-era cost).
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 128, PageBytes: 8 << 10, WalkLatency: 30}
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig) *TLB {
	shift := uint(0)
	for 1<<shift < cfg.PageBytes {
		shift++
	}
	return &TLB{
		pageShift: shift,
		walk:      uint64(cfg.WalkLatency),
		entries:   make([]uint64, cfg.Entries),
		age:       make([]uint64, cfg.Entries),
	}
}

// Translate looks up the page holding addr, filling on a miss. It returns
// the added latency in cycles (0 on a hit, the walk latency on a miss).
func (t *TLB) Translate(addr uint64) uint64 {
	page := addr>>t.pageShift + 1
	t.clock++
	victim := 0
	for i, e := range t.entries {
		if e == page {
			t.age[i] = t.clock
			t.hits++
			return 0
		}
		if e == 0 {
			victim = i
			break
		}
		if t.age[i] < t.age[victim] {
			victim = i
		}
	}
	t.entries[victim] = page
	t.age[victim] = t.clock
	t.misses++
	return t.walk
}

// Hits and Misses return the lookup counts.
func (t *TLB) Hits() uint64   { return t.hits }
func (t *TLB) Misses() uint64 { return t.misses }
