package core

import (
	"sort"

	"clustersim/internal/snap"
)

// Checkpoint support. Controllers are restored onto a receiver that has
// already been constructed and Reset with the same configuration, so cfg,
// total, and the observer hook are live; snapshots carry only the dynamic
// decision state. The decision observer is deliberately excluded — resumed
// runs are only checkpointed when no observer is attached.

func (m *intervalMeter) saveState(w *snap.Writer) {
	w.U64(m.startCycle)
	w.U64(m.instrs)
	w.U64(m.branches)
	w.U64(m.memrefs)
	w.U64(m.distant)
}

func (m *intervalMeter) loadState(r *snap.Reader) {
	m.startCycle = r.U64()
	m.instrs = r.U64()
	m.branches = r.U64()
	m.memrefs = r.U64()
	m.distant = r.U64()
}

// SaveState implements snap.Stater. The popularity map is emitted as
// key-sorted pairs so identical states produce identical bytes.
func (e *Explore) SaveState(w *snap.Writer) {
	w.Mark("ctrl-explore")
	w.U64(e.intervalLength)
	e.meter.saveState(w)
	w.Bool(e.haveReference)
	w.F64(e.refBranches)
	w.F64(e.refMemrefs)
	w.F64(e.refIPC)
	w.Bool(e.exploring)
	w.Int(e.exploreIdx)
	w.Int(e.warmupLeft)
	w.Int(len(e.exploreIPC))
	for _, v := range e.exploreIPC {
		w.F64(v)
	}
	w.Bool(e.stable)
	w.Bool(e.reanchor)
	w.Int(e.current)
	w.F64(e.ipcVariation)
	w.F64(e.instability)
	w.Bool(e.discontinued)
	keys := make([]int, 0, len(e.popularity))
	for k := range e.popularity {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
		w.U64(e.popularity[k])
	}
	w.U64(e.macroInstrs)
	w.U64(e.macroBranches)
	w.U64(e.macroMemrefs)
	w.F64(e.prevMacroBranches)
	w.F64(e.prevMacroMemrefs)
	w.Bool(e.haveMacroRef)
	w.U64(e.macrophases)
	w.U64(e.phaseChanges)
	w.U64(e.explorations)
	w.Int(e.intervalGrowth)
}

// LoadState implements snap.Stater.
func (e *Explore) LoadState(r *snap.Reader) {
	r.Mark("ctrl-explore")
	e.intervalLength = r.U64()
	e.meter.loadState(r)
	e.haveReference = r.Bool()
	e.refBranches = r.F64()
	e.refMemrefs = r.F64()
	e.refIPC = r.F64()
	e.exploring = r.Bool()
	e.exploreIdx = r.Int()
	e.warmupLeft = r.Int()
	if n := r.Int(); r.Err() == nil && n != len(e.exploreIPC) {
		r.Failf("core: explore controller has %d candidate configs, snapshot holds %d",
			len(e.exploreIPC), n)
		return
	}
	for i := range e.exploreIPC {
		e.exploreIPC[i] = r.F64()
	}
	e.stable = r.Bool()
	e.reanchor = r.Bool()
	e.current = r.Int()
	e.ipcVariation = r.F64()
	e.instability = r.F64()
	e.discontinued = r.Bool()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > 1<<16 {
		r.Failf("core: implausible popularity count %d", n)
		return
	}
	e.popularity = make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		k := r.Int()
		v := r.U64()
		if r.Err() != nil {
			return
		}
		e.popularity[k] = v
	}
	e.macroInstrs = r.U64()
	e.macroBranches = r.U64()
	e.macroMemrefs = r.U64()
	e.prevMacroBranches = r.F64()
	e.prevMacroMemrefs = r.F64()
	e.haveMacroRef = r.Bool()
	e.macrophases = r.U64()
	e.phaseChanges = r.U64()
	e.explorations = r.U64()
	e.intervalGrowth = r.Int()
}

// SaveState implements snap.Stater.
func (d *DistantILP) SaveState(w *snap.Writer) {
	w.Mark("ctrl-dilp")
	d.meter.saveState(w)
	w.Bool(d.measuring)
	w.Bool(d.haveReference)
	w.F64(d.refBranches)
	w.F64(d.refMemrefs)
	w.F64(d.refIPC)
	w.Int(d.current)
	w.U64(d.phaseChanges)
	w.U64(d.decisions)
}

// LoadState implements snap.Stater.
func (d *DistantILP) LoadState(r *snap.Reader) {
	r.Mark("ctrl-dilp")
	d.meter.loadState(r)
	d.measuring = r.Bool()
	d.haveReference = r.Bool()
	d.refBranches = r.F64()
	d.refMemrefs = r.F64()
	d.refIPC = r.F64()
	d.current = r.Int()
	d.phaseChanges = r.U64()
	d.decisions = r.U64()
}

// SaveState implements snap.Stater.
func (f *FineGrain) SaveState(w *snap.Writer) {
	w.Mark("ctrl-fg")
	w.Int(len(f.table))
	for i := range f.table {
		w.U64(uint64(f.table[i].samples))
		w.U64(uint64(f.table[i].distantSum))
		w.U64(uint64(f.table[i].advice))
	}
	w.Int(len(f.window))
	for i := range f.window {
		w.U64(f.window[i].pc)
		w.Bool(f.window[i].distant)
		w.Bool(f.window[i].isTrig)
	}
	w.Int(f.head)
	w.Int(f.size)
	w.Int(f.distant)
	w.Int(f.branchCounter)
	w.Int(f.current)
	w.U64(f.committed)
	w.U64(f.lastFlush)
	w.U64(f.reconfigLookups)
	w.U64(f.tableFlushes)
}

// LoadState implements snap.Stater.
func (f *FineGrain) LoadState(r *snap.Reader) {
	r.Mark("ctrl-fg")
	if n := r.Int(); r.Err() == nil && n != len(f.table) {
		r.Failf("core: fine-grain table has %d entries, snapshot holds %d", len(f.table), n)
		return
	}
	for i := range f.table {
		f.table[i].samples = uint16(r.U64())
		f.table[i].distantSum = uint32(r.U64())
		f.table[i].advice = uint8(r.U64())
	}
	if n := r.Int(); r.Err() == nil && n != len(f.window) {
		r.Failf("core: fine-grain window has %d slots, snapshot holds %d", len(f.window), n)
		return
	}
	for i := range f.window {
		f.window[i].pc = r.U64()
		f.window[i].distant = r.Bool()
		f.window[i].isTrig = r.Bool()
	}
	head := r.Int()
	size := r.Int()
	if r.Err() != nil {
		return
	}
	if head < 0 || head >= len(f.window) || size < 0 || size > len(f.window) {
		r.Failf("core: snapshot window position head=%d size=%d out of range (window %d)",
			head, size, len(f.window))
		return
	}
	f.head, f.size = head, size
	f.distant = r.Int()
	f.branchCounter = r.Int()
	f.current = r.Int()
	f.committed = r.U64()
	f.lastFlush = r.U64()
	f.reconfigLookups = r.U64()
	f.tableFlushes = r.U64()
}

var (
	_ snap.Stater = (*Explore)(nil)
	_ snap.Stater = (*DistantILP)(nil)
	_ snap.Stater = (*FineGrain)(nil)
)
