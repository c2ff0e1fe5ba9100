package core

import "clustersim/internal/snap"

// Checkpoint support. Controllers are restored onto a receiver that has
// already been constructed and Reset with the same configuration, so cfg,
// total, and the observer hook are live; snapshots carry only the dynamic
// decision state. The decision observer is deliberately excluded — resumed
// runs are only checkpointed when no observer is attached.

func (m *intervalMeter) state(c *snap.Codec) {
	c.U64(&m.startCycle)
	c.U64(&m.instrs)
	c.U64(&m.branches)
	c.U64(&m.memrefs)
	c.U64(&m.distant)
}

// State implements snap.Stater. The popularity map travels as key-sorted
// pairs so identical states produce identical bytes.
func (e *Explore) State(c *snap.Codec) {
	c.Mark("ctrl-explore")
	c.U64(&e.intervalLength)
	e.meter.state(c)
	c.Bool(&e.haveReference)
	c.F64(&e.refBranches)
	c.F64(&e.refMemrefs)
	c.F64(&e.refIPC)
	c.Bool(&e.exploring)
	c.Int(&e.exploreIdx)
	c.Int(&e.warmupLeft)
	c.Len(len(e.exploreIPC), "explore candidate configs")
	for i := range e.exploreIPC {
		c.F64(&e.exploreIPC[i])
	}
	c.Bool(&e.stable)
	c.Bool(&e.reanchor)
	c.Int(&e.current)
	c.F64(&e.ipcVariation)
	c.F64(&e.instability)
	c.Bool(&e.discontinued)
	snap.Map(c, &e.popularity, 1<<16, "explore popularity")
	c.U64(&e.macroInstrs)
	c.U64(&e.macroBranches)
	c.U64(&e.macroMemrefs)
	c.F64(&e.prevMacroBranches)
	c.F64(&e.prevMacroMemrefs)
	c.Bool(&e.haveMacroRef)
	c.U64(&e.macrophases)
	c.U64(&e.phaseChanges)
	c.U64(&e.explorations)
	c.Int(&e.intervalGrowth)
}

// State implements snap.Stater.
func (d *DistantILP) State(c *snap.Codec) {
	c.Mark("ctrl-dilp")
	d.meter.state(c)
	c.Bool(&d.measuring)
	c.Bool(&d.haveReference)
	c.F64(&d.refBranches)
	c.F64(&d.refMemrefs)
	c.F64(&d.refIPC)
	c.Int(&d.current)
	c.U64(&d.phaseChanges)
	c.U64(&d.decisions)
}

// State implements snap.Stater.
func (f *FineGrain) State(c *snap.Codec) {
	c.Mark("ctrl-fg")
	c.Len(len(f.table), "fine-grain table")
	for i := range f.table {
		e := &f.table[i]
		snap.Narrow(c, &e.samples)
		snap.Narrow(c, &e.distantSum)
		snap.Narrow(c, &e.advice)
	}
	c.Len(len(f.window), "fine-grain window")
	for i := range f.window {
		s := &f.window[i]
		c.U64(&s.pc)
		c.Bool(&s.distant)
		c.Bool(&s.isTrig)
	}
	c.Int(&f.head)
	c.Int(&f.size)
	c.Check(f.head >= 0 && f.head < len(f.window) && f.size >= 0 && f.size <= len(f.window),
		"core: snapshot window position head=%d size=%d out of range (window %d)", f.head, f.size, len(f.window))
	c.Int(&f.distant)
	c.Int(&f.branchCounter)
	c.Int(&f.current)
	c.U64(&f.committed)
	c.U64(&f.lastFlush)
	c.U64(&f.reconfigLookups)
	c.U64(&f.tableFlushes)
}

var (
	_ snap.Stater = (*Explore)(nil)
	_ snap.Stater = (*DistantILP)(nil)
	_ snap.Stater = (*FineGrain)(nil)
)
