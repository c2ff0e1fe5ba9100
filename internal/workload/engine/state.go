package engine

import "clustersim/internal/snap"

// Checkpoint support. The engine's compiled phases are static code derived
// deterministically from (program, seed) by the constructor and are never
// serialized; a snapshot carries only the dynamic cursor into that code —
// RNG state, instruction sequence number, phase/block/iteration position,
// call state, and the per-chain dependence and address cursors.

// State implements snap.Stater. A loading receiver must have been
// constructed for the same (benchmark, seed) pair that produced the
// snapshot; position fields are range-checked against the compiled code so
// a mismatched snapshot fails instead of indexing out of bounds.
func (e *engine) State(c *snap.Codec) {
	c.Mark("workload")
	st := e.r.State()
	for i := range st {
		c.U64(&st[i])
	}
	if c.Loading() && c.Err() == nil {
		c.Fail(e.r.SetState(st))
	}
	c.U64(&e.seq)
	c.Int(&e.phaseIdx)
	c.I64(&e.remaining)
	c.Int(&e.blk)
	c.Int(&e.idx)
	c.Int(&e.iter)
	c.Int(&e.itersThis)
	c.Int(&e.blocksDone)
	c.Bool(&e.pendingCall)
	c.U64(&e.callPC)
	c.Bool(&e.inFn)
	c.Int(&e.fnIdx)
	c.Int(&e.fnPos)
	c.U64(&e.retPC)
	c.U64s(&e.chainLast)
	c.U64s(&e.lastLoad)
	c.U64s(&e.cursor)
	c.U64s(&e.addrBase)
	c.U64(&e.regionLen)
	if c.Loading() {
		e.checkPosition(c)
	}
}

// checkPosition fails a load whose position does not index the compiled
// code, or whose chain state does not fit the phase's chain count.
func (e *engine) checkPosition(c *snap.Codec) {
	if !c.Check(e.phaseIdx >= 0 && e.phaseIdx < len(e.compiled),
		"workload: snapshot phaseIdx %d out of range [0,%d)", e.phaseIdx, len(e.compiled)) {
		return
	}
	cp := &e.compiled[e.phaseIdx]
	if !c.Check(e.blk >= 0 && e.blk < len(cp.blocks),
		"workload: snapshot block %d out of range [0,%d)", e.blk, len(cp.blocks)) {
		return
	}
	c.Check(e.idx >= 0 && e.idx < len(cp.blocks[e.blk]),
		"workload: snapshot block index %d out of range [0,%d)", e.idx, len(cp.blocks[e.blk]))
	if e.inFn {
		if !c.Check(e.fnIdx >= 0 && e.fnIdx < len(cp.fns),
			"workload: snapshot fnIdx %d out of range [0,%d)", e.fnIdx, len(cp.fns)) {
			return
		}
		c.Check(e.fnPos >= 0 && e.fnPos < len(cp.fns[e.fnIdx]),
			"workload: snapshot fnPos %d out of range [0,%d)", e.fnPos, len(cp.fns[e.fnIdx]))
	}
	chains := max(e.phases[e.phaseIdx].Kernel.Chains, 1)
	c.Check(len(e.chainLast) == chains && len(e.lastLoad) == chains &&
		len(e.cursor) == chains && len(e.addrBase) == chains,
		"workload: snapshot chain state sized %d, phase has %d chains", len(e.chainLast), chains)
}

var _ snap.Stater = (*engine)(nil)
