package mem

import (
	"clustersim/internal/interconnect"
	"clustersim/internal/snap"
)

// Checkpoint support. Geometry (set counts, way counts, bank counts, line
// shifts) is configuration and is rebuilt by the constructors; snapshots
// carry only dynamic state — tag arrays, LRU stamps, port calendars, the L2
// MSHR map, and statistics. The l2's stats pointer aliases the parent
// organization's Stats and is re-wired by the constructor, never serialized.

func (a *array) state(c *snap.Codec, what string) {
	c.FixedBools(a.valid, what+" valid bits")
	c.FixedBools(a.dirty, what+" dirty bits")
	c.FixedU64s(a.tags, what+" tags")
	c.FixedU32s(a.age, what+" ages")
	snap.Narrow(c, &a.clock)
}

// state carries the L2's dynamic state. The pendingMiss map travels as
// key-sorted pairs so identical machine states produce identical bytes.
func (c *l2) state(cd *snap.Codec) {
	cd.Mark("l2")
	c.arr.state(cd, "l2 array")
	cd.FixedU64s(c.bus, "l2 bus calendar")
	cd.FixedU64s(c.memBus, "l2 memory-bus calendar")
	snap.Map(cd, &c.pendingMiss, 1<<20, "l2 pending misses")
}

func (s *Stats) state(c *snap.Codec) {
	c.U64(&s.Loads)
	c.U64(&s.Stores)
	c.U64(&s.L1Hits)
	c.U64(&s.L1Misses)
	c.U64(&s.L1Writebacks)
	c.U64(&s.L2Hits)
	c.U64(&s.L2Misses)
	c.U64(&s.L2MergedMisses)
	c.U64(&s.L2Writebacks)
	c.U64(&s.FlushWritebacks)
	c.U64(&s.Flushes)
}

// State implements snap.Stater.
func (c *central) State(cd *snap.Codec) {
	cd.Mark("mem-central")
	c.arr.state(cd, "l1 array")
	c.l2.state(cd)
	interconnect.StateCalendars(cd, c.bankFree, "l1 bank calendar")
	c.stats.state(cd)
}

// State implements snap.Stater.
func (d *dist) State(c *snap.Codec) {
	c.Mark("mem-dist")
	c.Len(len(d.banks), "decentralized L1 banks")
	for _, b := range d.banks {
		b.state(c, "l1 bank array")
	}
	d.l2.state(c)
	interconnect.StateCalendars(c, d.bankFree, "l1 bank calendar")
	c.Int(&d.activeBanks)
	c.Check(d.activeBanks >= 1 && d.activeBanks <= d.cfg.Clusters,
		"mem: snapshot activeBanks %d out of range [1,%d]", d.activeBanks, d.cfg.Clusters)
	d.stats.state(c)
}

// State implements snap.Stater.
func (c *ICache) State(cd *snap.Codec) {
	cd.Mark("icache")
	c.arr.state(cd, "icache array")
	cd.U64(&c.hits)
	cd.U64(&c.misses)
}

// State implements snap.Stater.
func (t *TLB) State(c *snap.Codec) {
	c.Mark("tlb")
	c.FixedU64s(t.entries, "tlb entries")
	c.FixedU64s(t.age, "tlb ages")
	c.U64(&t.clock)
	c.U64(&t.hits)
	c.U64(&t.misses)
}

var (
	_ snap.Stater = (*ICache)(nil)
	_ snap.Stater = (*TLB)(nil)
)
