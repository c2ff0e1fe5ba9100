package engine

import "clustersim/internal/snap"

// Checkpoint support. The engine's compiled phases are static code derived
// deterministically from (program, seed) by the constructor and are never
// serialized; a snapshot carries only the dynamic cursor into that code —
// RNG state, instruction sequence number, phase/block/iteration position,
// call state, and the per-chain dependence and address cursors.

// SaveState implements snap.Stater.
func (e *engine) SaveState(w *snap.Writer) {
	w.Mark("workload")
	st := e.r.State()
	w.U64(st[0])
	w.U64(st[1])
	w.U64(st[2])
	w.U64(st[3])
	w.U64(e.seq)
	w.Int(e.phaseIdx)
	w.I64(e.remaining)
	w.Int(e.blk)
	w.Int(e.idx)
	w.Int(e.iter)
	w.Int(e.itersThis)
	w.Int(e.blocksDone)
	w.Bool(e.pendingCall)
	w.U64(e.callPC)
	w.Bool(e.inFn)
	w.Int(e.fnIdx)
	w.Int(e.fnPos)
	w.U64(e.retPC)
	w.U64s(e.chainLast)
	w.U64s(e.lastLoad)
	w.U64s(e.cursor)
	w.U64s(e.addrBase)
	w.U64(e.regionLen)
}

// LoadState implements snap.Stater. The receiver must have been constructed
// for the same (benchmark, seed) pair that produced the snapshot; position
// fields are range-checked against the compiled code so a mismatched
// snapshot fails instead of indexing out of bounds.
func (e *engine) LoadState(r *snap.Reader) {
	r.Mark("workload")
	var st [4]uint64
	st[0] = r.U64()
	st[1] = r.U64()
	st[2] = r.U64()
	st[3] = r.U64()
	if r.Err() == nil {
		if err := e.r.SetState(st); err != nil {
			r.Fail(err)
			return
		}
	}
	e.seq = r.U64()
	phaseIdx := r.Int()
	remaining := r.I64()
	blk := r.Int()
	idx := r.Int()
	iter := r.Int()
	itersThis := r.Int()
	blocksDone := r.Int()
	pendingCall := r.Bool()
	callPC := r.U64()
	inFn := r.Bool()
	fnIdx := r.Int()
	fnPos := r.Int()
	retPC := r.U64()
	chainLast := r.U64s()
	lastLoad := r.U64s()
	cursor := r.U64s()
	addrBase := r.U64s()
	regionLen := r.U64()
	if r.Err() != nil {
		return
	}
	if phaseIdx < 0 || phaseIdx >= len(e.compiled) {
		r.Failf("workload: snapshot phaseIdx %d out of range [0,%d)", phaseIdx, len(e.compiled))
		return
	}
	cp := &e.compiled[phaseIdx]
	if blk < 0 || blk >= len(cp.blocks) {
		r.Failf("workload: snapshot block %d out of range [0,%d)", blk, len(cp.blocks))
		return
	}
	if idx < 0 || idx >= len(cp.blocks[blk]) {
		r.Failf("workload: snapshot block index %d out of range [0,%d)", idx, len(cp.blocks[blk]))
		return
	}
	if inFn {
		if fnIdx < 0 || fnIdx >= len(cp.fns) {
			r.Failf("workload: snapshot fnIdx %d out of range [0,%d)", fnIdx, len(cp.fns))
			return
		}
		if fnPos < 0 || fnPos >= len(cp.fns[fnIdx]) {
			r.Failf("workload: snapshot fnPos %d out of range [0,%d)", fnPos, len(cp.fns[fnIdx]))
			return
		}
	}
	chains := e.phases[phaseIdx].Kernel.Chains
	if chains < 1 {
		chains = 1
	}
	if len(chainLast) != chains || len(lastLoad) != chains ||
		len(cursor) != chains || len(addrBase) != chains {
		r.Failf("workload: snapshot chain state sized %d, phase has %d chains", len(chainLast), chains)
		return
	}
	e.phaseIdx = phaseIdx
	e.remaining = remaining
	e.blk, e.idx, e.iter = blk, idx, iter
	e.itersThis, e.blocksDone = itersThis, blocksDone
	e.pendingCall, e.callPC = pendingCall, callPC
	e.inFn, e.fnIdx, e.fnPos, e.retPC = inFn, fnIdx, fnPos, retPC
	e.chainLast, e.lastLoad = chainLast, lastLoad
	e.cursor, e.addrBase = cursor, addrBase
	e.regionLen = regionLen
}

var _ snap.Stater = (*engine)(nil)
