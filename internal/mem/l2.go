package mem

import "clustersim/internal/interconnect"

// l2 models the unified second-level cache and main memory behind it. The
// L2 is co-located with cluster 0; callers are responsible for network hops
// to and from it. A single tag pipeline accepts one access every busyCycles
// cycles; misses pay the memory latency. Outstanding misses to the same line
// merge (MSHR behaviour).
type l2 struct {
	arr        *array
	latency    uint64 //simlint:nostate configuration; hit latency (25)
	memLatency uint64 //simlint:nostate configuration; miss additional latency (160)
	busyCycles uint64 //simlint:nostate configuration; initiation interval of the tag pipeline
	memBusy    uint64 //simlint:nostate configuration; memory-bus cycles per fetched line
	bus        interconnect.Calendar
	memBus     interconnect.Calendar
	// pendingMiss maps line address -> cycle the line arrives from memory.
	pendingMiss map[uint64]uint64
	stats       *Stats //simlint:nostate aliases the parent organization's Stats, which serializes them; re-wired by the constructor
}

func newL2(cfg Config, stats *Stats) *l2 {
	return &l2{
		arr:         newArray(cfg.L2Size, cfg.L2Line, cfg.L2Ways),
		latency:     uint64(cfg.L2Latency),
		memLatency:  uint64(cfg.MemLatency),
		busyCycles:  uint64(cfg.L2Busy),
		memBusy:     uint64(cfg.MemBusy),
		bus:         interconnect.NewCalendar(),
		memBus:      interconnect.NewCalendar(),
		pendingMiss: make(map[uint64]uint64),
		stats:       stats,
	}
}

// access services a request arriving at the L2 at cycle t and returns the
// cycle at which the line is available at the L2.
func (c *l2) access(t uint64, addr uint64, write bool) uint64 {
	line := addr >> 6 // L2 line granularity for miss merging
	if done, ok := c.pendingMiss[line]; ok {
		if done > t {
			// Merge into the outstanding miss.
			c.stats.L2MergedMisses++
			return done
		}
		delete(c.pendingMiss, line)
	}
	start := c.bus.ReserveEvery(t, c.busyCycles)
	hit, wb := c.arr.access(addr, write)
	if wb {
		c.stats.L2Writebacks++
	}
	if hit {
		c.stats.L2Hits++
		return start + c.latency
	}
	c.stats.L2Misses++
	// The memory bus accepts one line fetch every memBusy cycles.
	memStart := c.memBus.ReserveEvery(start+c.latency, c.memBusy)
	done := memStart + c.memLatency
	c.pendingMiss[line] = done
	if len(c.pendingMiss) > 4096 {
		c.gc(t)
	}
	return done
}

// writeback accepts a dirty L1 line at cycle t (timing only; the L2 bus
// occupancy models the cost).
func (c *l2) writeback(t uint64, addr uint64) {
	c.bus.ReserveEvery(t, c.busyCycles)
	_, wb := c.arr.access(addr, true)
	if wb {
		c.stats.L2Writebacks++
	}
}

func (c *l2) gc(now uint64) {
	for k, v := range c.pendingMiss {
		if v <= now {
			delete(c.pendingMiss, k)
		}
	}
}
