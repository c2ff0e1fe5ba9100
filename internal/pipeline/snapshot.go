package pipeline

import (
	"fmt"
	"io"

	"clustersim/internal/isa"
	"clustersim/internal/snap"
)

// Checkpoint/resume for crash-safe sweeps.
//
// SaveCheckpoint serializes the processor's complete dynamic state — the
// in-flight window, front end, clusters, memory hierarchy, predictors,
// workload-generator cursor and controller — to a versioned snapshot.
// LoadCheckpoint restores it into a freshly constructed Processor built from
// the identical (Config, benchmark, controller) triple; resuming then
// produces byte-identical Results versus the uninterrupted run (proved by
// check.ResumeEquivalence).
//
// The snapshot header carries a format version and a Config fingerprint, so
// a snapshot from a different simulator build or a different configuration
// fails loudly at the header instead of silently producing wrong numbers.
//
// The observability and validation layers are deliberately outside the
// snapshot: observers stream to external sinks whose positions cannot be
// rewound, and checkers are debugging aids. Checkpointable reports whether a
// run can be checkpointed; the runner only checkpoints cacheable requests,
// which excludes observer/checker runs by construction.

const (
	// snapMagic identifies a clustersim snapshot stream.
	snapMagic = "CSIM-SNAP"
	// snapVersion is the snapshot layout version; bump on any layout
	// change.
	snapVersion = 1
)

// Checkpointable reports whether the processor's state can round-trip
// through a snapshot, returning a descriptive error when it cannot: an
// observer or checker is attached, or the workload generator, network,
// memory system or controller does not implement snap.Stater.
func (p *Processor) Checkpointable() error {
	if p.obs != nil {
		return fmt.Errorf("pipeline: runs with an observer attached cannot be checkpointed")
	}
	if p.chk != nil {
		return fmt.Errorf("pipeline: runs with a checker attached cannot be checkpointed")
	}
	if _, ok := p.gen.(snap.Stater); !ok {
		return fmt.Errorf("pipeline: workload generator %T does not support checkpointing", p.gen)
	}
	if _, ok := p.net.(snap.Stater); !ok {
		return fmt.Errorf("pipeline: network %T does not support checkpointing", p.net)
	}
	if _, ok := p.memsys.(snap.Stater); !ok {
		return fmt.Errorf("pipeline: memory system %T does not support checkpointing", p.memsys)
	}
	if p.ctrl != nil {
		if _, ok := p.ctrl.(snap.Stater); !ok {
			return fmt.Errorf("pipeline: controller %T does not support checkpointing", p.ctrl)
		}
	}
	return nil
}

// SaveCheckpoint writes a snapshot of the processor's dynamic state to wr.
func (p *Processor) SaveCheckpoint(wr io.Writer) error {
	if err := p.Checkpointable(); err != nil {
		return err
	}
	w := snap.NewWriter(wr)
	w.String(snapMagic)
	w.U64(snapVersion)
	w.U64(p.cfg.Fingerprint())
	w.String(p.gen.Name())
	w.String(p.policy)

	w.Mark("proc")
	w.U64(p.cycle)
	w.U64(p.committed)
	w.U64(p.headSeq)
	w.U64(p.tailSeq)
	w.U64(p.fetchSeq)
	w.Int(p.active)
	w.Int(p.lsqTotal)
	w.Bool(p.draining)
	w.Int(p.pendingActive)
	w.U64(p.resumeAt)
	w.U64(p.fetchBlockedSeq)
	w.U64(p.fetchResumeAt)
	w.Int(p.modNCluster)
	w.Int(p.modNCount)
	w.U64(p.fetchStallUntil)
	w.U64(p.lastFetchLine)
	w.U64(p.lastCommitCycle)

	w.Mark("stats")
	w.U64(p.stats.Fetched)
	w.U64(p.stats.Dispatched)
	w.U64(p.stats.Redirects)
	w.U64(p.stats.DistantIssued)
	w.U64(p.stats.DistantCommitted)
	w.U64(p.stats.Reconfigs)
	w.U64(p.stats.ActiveSum)
	w.U64(p.stats.RegTransfers)
	w.U64(p.stats.RegLatencySum)
	w.U64(p.stats.StoreBroadcasts)
	w.U64(p.stats.BankMispredicts)
	w.U64(p.stats.LoadForwards)

	w.Mark("rob")
	for seq := p.headSeq; seq < p.tailSeq; seq++ {
		saveUop(w, p.at(seq))
	}

	// The fetch queue is written logically (oldest first) so restore can
	// normalize to fqHead = 0 — ring rotation is not machine state.
	w.Mark("fq")
	w.Int(p.fqLen)
	for i := 0; i < p.fqLen; i++ {
		e := &p.fq[(p.fqHead+i)&p.fqMask]
		saveInstr(w, &e.in)
		w.U64(e.seq)
		w.U64(e.earliest)
		w.Bool(e.mispred)
	}

	// The event stepper keeps the per-cluster issue-queue lists empty (the
	// wheel and wait chains replace them); derive them from the ROB for the
	// save so both steppers write byte-identical snapshots, then clear them
	// again. Ascending-seq derivation matches the legacy stepper's
	// compaction order exactly.
	if !p.cfg.LegacyStepper {
		p.fillIQLists()
		defer p.clearIQLists()
	}
	w.Mark("clusters")
	for ci := range p.clusters {
		cs := &p.clusters[ci]
		w.U64s(cs.iqInt)
		w.U64s(cs.iqFP)
		w.Int(cs.intRegs)
		w.Int(cs.fpRegs)
		w.Int(cs.lsq)
		for k := range cs.fuFree {
			w.U64s(cs.fuFree[k])
		}
	}

	// The store window is written from storesHead so restore compacts to
	// storesHead = 0; compaction timing is bookkeeping, not machine state.
	w.Mark("memwin")
	w.U64s(p.stores[p.storesHead:])
	w.U64s(p.pendingLoads)
	w.Int(len(p.dummyReleases))
	for _, d := range p.dummyReleases {
		w.U64(d.at)
		w.Int(int(d.cluster))
	}

	w.Mark("components")
	w.Bool(p.crit != nil)
	if p.crit != nil {
		w.U8s(p.crit.table)
	}
	w.Bool(p.icache != nil)
	if p.icache != nil {
		p.icache.SaveState(w)
	}
	w.Bool(p.dtlb != nil)
	if p.dtlb != nil {
		p.dtlb.SaveState(w)
	}
	p.net.(snap.Stater).SaveState(w)
	p.memsys.(snap.Stater).SaveState(w)
	p.bp.SaveState(w)
	w.Bool(p.bankp != nil)
	if p.bankp != nil {
		p.bankp.SaveState(w)
	}
	p.gen.(snap.Stater).SaveState(w)
	w.Bool(p.ctrl != nil)
	if p.ctrl != nil {
		p.ctrl.(snap.Stater).SaveState(w)
	}
	w.Mark("end")
	return w.Flush()
}

// LoadCheckpoint restores a snapshot written by SaveCheckpoint into p, which
// must be a freshly constructed Processor built from the identical Config,
// benchmark and controller. The header's fingerprint, benchmark and policy
// are verified before any state is touched.
func (p *Processor) LoadCheckpoint(rd io.Reader) error {
	if err := p.Checkpointable(); err != nil {
		return err
	}
	r := snap.NewReader(rd)
	if magic := r.String(); r.Err() == nil && magic != snapMagic {
		return fmt.Errorf("pipeline: not a clustersim snapshot (magic %q)", magic)
	}
	if v := r.U64(); r.Err() == nil && v != snapVersion {
		return fmt.Errorf("pipeline: snapshot version %d, this build reads version %d", v, snapVersion)
	}
	if fp := r.U64(); r.Err() == nil && fp != p.cfg.Fingerprint() {
		return fmt.Errorf("pipeline: snapshot was taken under a different configuration (fingerprint %#x, want %#x)",
			fp, p.cfg.Fingerprint())
	}
	if bench := r.String(); r.Err() == nil && bench != p.gen.Name() {
		return fmt.Errorf("pipeline: snapshot is for benchmark %q, processor runs %q", bench, p.gen.Name())
	}
	if policy := r.String(); r.Err() == nil && policy != p.policy {
		return fmt.Errorf("pipeline: snapshot is for policy %q, processor runs %q", policy, p.policy)
	}
	if err := r.Err(); err != nil {
		return err
	}

	r.Mark("proc")
	p.cycle = r.U64()
	p.committed = r.U64()
	headSeq := r.U64()
	tailSeq := r.U64()
	fetchSeq := r.U64()
	if r.Err() == nil {
		if headSeq > tailSeq || tailSeq > fetchSeq || tailSeq-headSeq > uint64(len(p.rob)) {
			return fmt.Errorf("pipeline: snapshot window corrupt (head=%d tail=%d fetch=%d rob=%d)",
				headSeq, tailSeq, fetchSeq, len(p.rob))
		}
	}
	p.headSeq, p.tailSeq, p.fetchSeq = headSeq, tailSeq, fetchSeq
	active := r.Int()
	if r.Err() == nil && (active < 1 || active > p.cfg.Clusters) {
		return fmt.Errorf("pipeline: snapshot active clusters %d out of range [1,%d]", active, p.cfg.Clusters)
	}
	p.active = active
	p.lsqTotal = r.Int()
	p.draining = r.Bool()
	p.pendingActive = r.Int()
	p.resumeAt = r.U64()
	p.fetchBlockedSeq = r.U64()
	p.fetchResumeAt = r.U64()
	p.modNCluster = r.Int()
	p.modNCount = r.Int()
	p.fetchStallUntil = r.U64()
	p.lastFetchLine = r.U64()
	p.lastCommitCycle = r.U64()

	r.Mark("stats")
	p.stats.Fetched = r.U64()
	p.stats.Dispatched = r.U64()
	p.stats.Redirects = r.U64()
	p.stats.DistantIssued = r.U64()
	p.stats.DistantCommitted = r.U64()
	p.stats.Reconfigs = r.U64()
	p.stats.ActiveSum = r.U64()
	p.stats.RegTransfers = r.U64()
	p.stats.RegLatencySum = r.U64()
	p.stats.StoreBroadcasts = r.U64()
	p.stats.BankMispredicts = r.U64()
	p.stats.LoadForwards = r.U64()

	r.Mark("rob")
	if r.Err() == nil {
		for seq := p.headSeq; seq < p.tailSeq; seq++ {
			u := p.at(seq)
			loadUop(r, u)
			if r.Err() != nil {
				break
			}
			if u.seq != seq {
				return fmt.Errorf("pipeline: snapshot ROB entry holds seq %d, expected %d", u.seq, seq)
			}
		}
	}

	r.Mark("fq")
	fqLen := r.Int()
	if r.Err() == nil && (fqLen < 0 || fqLen > p.fqCap) {
		return fmt.Errorf("pipeline: snapshot fetch queue holds %d entries, capacity %d", fqLen, p.fqCap)
	}
	p.fqHead = 0
	p.fqLen = fqLen
	for i := 0; i < fqLen && r.Err() == nil; i++ {
		e := &p.fq[i]
		loadInstr(r, &e.in)
		e.seq = r.U64()
		e.earliest = r.U64()
		e.mispred = r.Bool()
	}

	r.Mark("clusters")
	for ci := range p.clusters {
		cs := &p.clusters[ci]
		cs.iqInt = append(cs.iqInt[:0], r.U64s()...)
		cs.iqFP = append(cs.iqFP[:0], r.U64s()...)
		cs.intRegs = r.Int()
		cs.fpRegs = r.Int()
		cs.lsq = r.Int()
		for k := range cs.fuFree {
			r.FixedU64s(cs.fuFree[k], "functional-unit calendar")
		}
		if r.Err() != nil {
			break
		}
	}

	r.Mark("memwin")
	p.stores = append(p.stores[:0], r.U64s()...)
	p.storesHead = 0
	p.pendingLoads = append(p.pendingLoads[:0], r.U64s()...)
	nDummy := r.Int()
	if r.Err() == nil && (nDummy < 0 || nDummy > cap(p.dummyReleases)) {
		return fmt.Errorf("pipeline: snapshot holds %d dummy releases, capacity %d", nDummy, cap(p.dummyReleases))
	}
	p.dummyReleases = p.dummyReleases[:0]
	for i := 0; i < nDummy && r.Err() == nil; i++ {
		at := r.U64()
		cl := r.Int()
		if cl < 0 || cl >= p.cfg.Clusters {
			return fmt.Errorf("pipeline: snapshot dummy release names cluster %d of %d", cl, p.cfg.Clusters)
		}
		p.dummyReleases = append(p.dummyReleases, dummyRelease{at: at, cluster: int32(cl)})
	}

	r.Mark("components")
	hasCrit := r.Bool()
	if r.Err() == nil && hasCrit != (p.crit != nil) {
		return fmt.Errorf("pipeline: snapshot criticality table presence %t, processor has %t", hasCrit, p.crit != nil)
	}
	if hasCrit && r.Err() == nil {
		table := r.U8s()
		if r.Err() == nil {
			if len(table) != len(p.crit.table) {
				return fmt.Errorf("pipeline: snapshot criticality table has %d entries, want %d", len(table), len(p.crit.table))
			}
			copy(p.crit.table, table)
		}
	}
	hasICache := r.Bool()
	if r.Err() == nil && hasICache != (p.icache != nil) {
		return fmt.Errorf("pipeline: snapshot icache presence %t, processor has %t", hasICache, p.icache != nil)
	}
	if hasICache && r.Err() == nil {
		p.icache.LoadState(r)
	}
	hasTLB := r.Bool()
	if r.Err() == nil && hasTLB != (p.dtlb != nil) {
		return fmt.Errorf("pipeline: snapshot dtlb presence %t, processor has %t", hasTLB, p.dtlb != nil)
	}
	if hasTLB && r.Err() == nil {
		p.dtlb.LoadState(r)
	}
	p.net.(snap.Stater).LoadState(r)
	p.memsys.(snap.Stater).LoadState(r)
	p.bp.LoadState(r)
	hasBank := r.Bool()
	if r.Err() == nil && hasBank != (p.bankp != nil) {
		return fmt.Errorf("pipeline: snapshot bank predictor presence %t, processor has %t", hasBank, p.bankp != nil)
	}
	if hasBank && r.Err() == nil {
		p.bankp.LoadState(r)
	}
	p.gen.(snap.Stater).LoadState(r)
	hasCtrl := r.Bool()
	if r.Err() == nil && hasCtrl != (p.ctrl != nil) {
		return fmt.Errorf("pipeline: snapshot controller presence %t, processor has %t", hasCtrl, p.ctrl != nil)
	}
	if hasCtrl && r.Err() == nil {
		p.ctrl.(snap.Stater).LoadState(r)
	}
	r.Mark("end")
	if err := r.Err(); err != nil {
		return err
	}
	// Reconstruct the derived scheduler state (occupancy counters, LSQ-full
	// count, and — under the event stepper — the wheel parking of every
	// dispatched-unissued uop). None of it is serialized: it is a pure
	// function of the loaded window. See rebuildSched in sched.go.
	p.rebuildSched()
	return nil
}

func saveInstr(w *snap.Writer, in *isa.Instruction) {
	w.U64(in.PC)
	w.U64(uint64(in.Class))
	w.U64(uint64(in.SrcDist1))
	w.U64(uint64(in.SrcDist2))
	w.Bool(in.HasDest)
	w.U64(in.Addr)
	w.Bool(in.Taken)
	w.U64(in.Target)
	w.Bool(in.EndsBlock)
}

func loadInstr(r *snap.Reader, in *isa.Instruction) {
	in.PC = r.U64()
	cls := r.U64()
	if r.Err() == nil && cls >= uint64(isa.NumClasses) {
		r.Failf("pipeline: snapshot instruction class %d out of range", cls)
		return
	}
	in.Class = isa.Class(cls)
	in.SrcDist1 = uint32(r.U64())
	in.SrcDist2 = uint32(r.U64())
	in.HasDest = r.Bool()
	in.Addr = r.U64()
	in.Taken = r.Bool()
	in.Target = r.U64()
	in.EndsBlock = r.Bool()
}

func saveUop(w *snap.Writer, u *uop) {
	saveInstr(w, &u.in)
	w.U64(u.seq)
	w.Int(int(u.cluster))
	w.Bool(u.issued)
	w.Bool(u.memDone)
	w.Bool(u.memStarted)
	w.Bool(u.distant)
	w.Bool(u.mispredicted)
	w.Bool(u.bankMispred)
	w.U64(u.dispatchReady)
	w.U64(u.issueAt)
	w.U64(u.doneAt)
	w.U64(u.agenDoneAt)
	w.U64(u.resolveGlobalAt)
	w.Int(int(u.predictedHome))
	w.Int(int(u.activeAtDispatch))
	w.U64(u.src1At)
	w.U64(u.src2At)
	w.U64(u.waitStore)
	w.U64(u.readyAt)
	for i := range u.fwd {
		w.U64(u.fwd[i])
	}
}

func loadUop(r *snap.Reader, u *uop) {
	loadInstr(r, &u.in)
	u.seq = r.U64()
	u.cluster = int32(r.Int())
	u.issued = r.Bool()
	u.memDone = r.Bool()
	u.memStarted = r.Bool()
	u.distant = r.Bool()
	u.mispredicted = r.Bool()
	u.bankMispred = r.Bool()
	u.dispatchReady = r.U64()
	u.issueAt = r.U64()
	u.doneAt = r.U64()
	u.agenDoneAt = r.U64()
	u.resolveGlobalAt = r.U64()
	u.predictedHome = int32(r.Int())
	u.activeAtDispatch = int32(r.Int())
	u.src1At = r.U64()
	u.src2At = r.U64()
	u.waitStore = r.U64()
	u.readyAt = r.U64()
	// Wait chains and the cached agenda key are rebuilt by rebuildSched,
	// never serialized.
	u.wHead, u.wNext, u.key = 0, 0, 0
	for i := range u.fwd {
		u.fwd[i] = r.U64()
	}
}
