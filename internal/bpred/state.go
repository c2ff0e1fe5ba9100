package bpred

import "clustersim/internal/snap"

// Checkpoint support. Table geometry is configuration and is rebuilt by the
// constructors; snapshots carry only counters, histories, BTB contents, the
// return-address stack, and statistics.

// State implements snap.Stater.
func (p *Predictor) State(c *snap.Codec) {
	c.Mark("bpred")
	c.FixedU8s(p.bimodal, "bimodal table")
	c.FixedU16s(p.hist, "branch history table")
	c.FixedU8s(p.level2, "level-2 table")
	c.FixedU8s(p.meta, "meta table")
	c.FixedU64s(p.btbTags, "btb tags")
	c.FixedU64s(p.btbTargets, "btb targets")
	c.FixedU8s(p.btbLRU, "btb lru")
	c.FixedU64s(p.ras, "return-address stack")
	c.Int(&p.rasTop)
	c.Check(p.rasTop >= 0 && p.rasTop < len(p.ras),
		"bpred: snapshot rasTop %d out of range [0,%d)", p.rasTop, len(p.ras))
	c.U64(&p.stats.Lookups)
	c.U64(&p.stats.Mispredicts)
}

// State implements snap.Stater.
func (p *BankPredictor) State(c *snap.Codec) {
	c.Mark("bankpred")
	c.FixedU32s(p.hist, "bank history table")
	c.FixedU8s(p.banks, "bank prediction table")
	c.FixedU8s(p.conf, "bank confidence table")
	c.U64(&p.stats.Lookups)
	c.U64(&p.stats.Mispredicts)
}

var (
	_ snap.Stater = (*Predictor)(nil)
	_ snap.Stater = (*BankPredictor)(nil)
)
