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
// internal/check's ResumeEquivalence oracle).
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
	snapVersion = 2
)

// Checkpointable reports whether the processor's state can round-trip
// through a snapshot, returning a descriptive error when it cannot: an
// observer or checker is attached, or the workload generator or controller
// does not implement snap.Stater (every network and memory system does).
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
	// The event stepper keeps the per-cluster issue-queue lists empty (the
	// wheel and wait chains replace them); derive them from the ROB for the
	// save so both steppers write byte-identical snapshots, then clear them
	// again. Ascending-seq derivation matches the legacy stepper's
	// compaction order exactly.
	if !p.cfg.LegacyStepper {
		p.fillIQLists()
		defer p.clearIQLists()
	}
	c := snap.NewSaver(wr)
	p.checkpoint(c)
	return c.Flush()
}

// LoadCheckpoint restores a snapshot written by SaveCheckpoint into p, which
// must be a freshly constructed Processor built from the identical Config,
// benchmark and controller. The header's fingerprint, benchmark and policy
// are verified before any state is touched. A failed load may leave p
// half-restored; build a fresh Processor to run from scratch.
func (p *Processor) LoadCheckpoint(rd io.Reader) error {
	if err := p.Checkpointable(); err != nil {
		return err
	}
	c := snap.NewLoader(rd)
	if p.checkpoint(c); c.Err() != nil {
		return c.Err()
	}
	// Reconstruct the derived scheduler state (occupancy counters, LSQ-full
	// count, and — under the event stepper — the wheel parking of every
	// dispatched-unissued uop). None of it is serialized: it is a pure
	// function of the loaded window. See rebuildSched in sched.go.
	p.rebuildSched()
	return nil
}

// checkpoint is the processor's field list, header first.
func (p *Processor) checkpoint(c *snap.Codec) {
	clusters := p.cfg.Clusters
	c.ExpectString(snapMagic, "pipeline: not a clustersim snapshot (magic %[1]q)")
	c.Expect(snapVersion, "pipeline: snapshot version %d, this build reads version %d")
	c.Expect(p.cfg.Fingerprint(), "pipeline: snapshot was taken under a different configuration (fingerprint %#x, want %#x)")
	c.ExpectString(p.gen.Name(), "pipeline: snapshot is for benchmark %q, processor runs %q")
	c.ExpectString(p.policy, "pipeline: snapshot is for policy %q, processor runs %q")

	c.Mark("proc")
	c.U64(&p.cycle)
	c.U64(&p.committed)
	c.U64(&p.headSeq)
	c.U64(&p.tailSeq)
	c.U64(&p.fetchSeq)
	c.Check(p.headSeq <= p.tailSeq && p.tailSeq <= p.fetchSeq && p.tailSeq-p.headSeq <= uint64(len(p.rob)),
		"pipeline: snapshot window corrupt (head=%d tail=%d fetch=%d rob=%d)",
		p.headSeq, p.tailSeq, p.fetchSeq, len(p.rob))
	c.Int(&p.active)
	c.Check(p.active >= 1 && p.active <= clusters,
		"pipeline: snapshot active clusters %d out of range [1,%d]", p.active, clusters)
	c.Int(&p.lsqTotal)
	c.Bool(&p.draining)
	c.Int(&p.pendingActive)
	c.Check(p.pendingActive >= 0 && p.pendingActive <= clusters && (p.pendingActive >= 1 || !p.draining),
		"pipeline: snapshot pending active clusters %d out of range (draining %t, %d clusters)",
		p.pendingActive, p.draining, clusters)
	c.U64(&p.resumeAt)
	c.U64(&p.fetchBlockedSeq)
	c.U64(&p.fetchResumeAt)
	c.Int(&p.modNCluster)
	c.Check(p.modNCluster >= 0 && p.modNCluster < clusters,
		"pipeline: snapshot mod-N cluster %d out of range [0,%d)", p.modNCluster, clusters)
	c.Int(&p.modNCount)
	c.U64(&p.fetchStallUntil)
	c.U64(&p.lastFetchLine)
	c.U64(&p.lastCommitCycle)

	c.Mark("stats")
	s := &p.stats
	c.U64(&s.Fetched)
	c.U64(&s.Dispatched)
	c.U64(&s.Redirects)
	c.U64(&s.DistantIssued)
	c.U64(&s.DistantCommitted)
	c.U64(&s.Reconfigs)
	c.U64(&s.ActiveSum)
	c.U64(&s.RegTransfers)
	c.U64(&s.RegLatencySum)
	c.U64(&s.StoreBroadcasts)
	c.U64(&s.BankMispredicts)
	c.U64(&s.LoadForwards)

	c.Mark("rob")
	for seq := p.headSeq; seq < p.tailSeq && c.Err() == nil; seq++ {
		u := p.at(seq)
		u.state(c, clusters)
		c.Check(u.seq == seq, "pipeline: snapshot ROB entry holds seq %d, expected %d", u.seq, seq)
	}

	// The fetch queue is written logically (oldest first) so a load
	// normalizes to fqHead = 0: ring rotation is not machine state.
	c.Mark("fq")
	c.Int(&p.fqLen)
	c.Check(p.fqLen >= 0 && p.fqLen <= p.fqCap,
		"pipeline: snapshot fetch queue holds %d entries, capacity %d", p.fqLen, p.fqCap)
	if c.Loading() {
		p.fqHead = 0
	}
	for i := 0; i < p.fqLen && c.Err() == nil; i++ {
		e := &p.fq[(p.fqHead+i)&p.fqMask]
		instrState(c, &e.in)
		c.U64(&e.seq)
		c.U64(&e.earliest)
		c.Bool(&e.mispred)
	}

	c.Mark("clusters")
	for ci := range p.clusters {
		cs := &p.clusters[ci]
		c.U64s(&cs.iqInt)
		c.U64s(&cs.iqFP)
		c.Int(&cs.intRegs)
		c.Int(&cs.fpRegs)
		c.Int(&cs.lsq)
		for k := range cs.fuFree {
			c.FixedU64s(cs.fuFree[k], "functional-unit calendar")
		}
	}

	// The store window is written from storesHead so a load compacts to
	// storesHead = 0: compaction timing is bookkeeping, not machine state.
	c.Mark("memwin")
	stores := p.stores[p.storesHead:]
	if c.U64s(&stores); c.Loading() {
		p.stores, p.storesHead = stores, 0
	}
	c.U64s(&p.pendingLoads)
	snap.Resize(c, &p.dummyReleases, cap(p.dummyReleases), "dummy release")
	for i := range p.dummyReleases {
		d := &p.dummyReleases[i]
		c.U64(&d.at)
		snap.Narrow(c, &d.cluster)
		c.Check(d.cluster >= 0 && int(d.cluster) < clusters,
			"pipeline: snapshot dummy release names cluster %d of %d", d.cluster, clusters)
	}

	c.Mark("components")
	p.icache.State(c)
	p.dtlb.State(c)
	p.net.State(c)
	p.memsys.State(c)
	p.bp.State(c)
	if c.Present(p.bankp != nil, "bank predictor") {
		p.bankp.State(c)
	}
	p.gen.(snap.Stater).State(c)
	if c.Present(p.ctrl != nil, "controller") {
		p.ctrl.(snap.Stater).State(c)
	}
	c.Mark("end")
}

// instrState is an instruction's field list. The class is checked while it
// is still a full word, before it narrows to isa.Class.
func instrState(c *snap.Codec, in *isa.Instruction) {
	c.U64(&in.PC)
	class := uint64(in.Class)
	c.U64(&class)
	if c.Check(class < uint64(isa.NumClasses), "pipeline: snapshot instruction class %d out of range", class) {
		in.Class = isa.Class(class)
	}
	snap.Narrow(c, &in.SrcDist1)
	snap.Narrow(c, &in.SrcDist2)
	c.Bool(&in.HasDest)
	c.U64(&in.Addr)
	c.Bool(&in.Taken)
	c.U64(&in.Target)
	c.Bool(&in.EndsBlock)
}

// state is a uop's field list. Its cluster and the active count it
// dispatched under must fit the machine's clusters: the stages index
// per-cluster state with both.
func (u *uop) state(c *snap.Codec, clusters int) {
	instrState(c, &u.in)
	c.U64(&u.seq)
	snap.Narrow(c, &u.cluster)
	c.Check(u.cluster >= 0 && int(u.cluster) < clusters,
		"pipeline: snapshot ROB entry names cluster %d of %d", u.cluster, clusters)
	c.Bool(&u.issued)
	c.Bool(&u.memDone)
	c.Bool(&u.memStarted)
	c.Bool(&u.distant)
	c.Bool(&u.mispredicted)
	c.Bool(&u.bankMispred)
	c.U64(&u.dispatchReady)
	c.U64(&u.issueAt)
	c.U64(&u.doneAt)
	c.U64(&u.agenDoneAt)
	c.U64(&u.resolveGlobalAt)
	snap.Narrow(c, &u.predictedHome)
	snap.Narrow(c, &u.activeAtDispatch)
	c.Check(u.activeAtDispatch >= 1 && int(u.activeAtDispatch) <= clusters,
		"pipeline: snapshot ROB entry dispatched under %d active clusters of %d", u.activeAtDispatch, clusters)
	c.U64(&u.src1At)
	c.U64(&u.src2At)
	c.U64(&u.waitStore)
	c.U64(&u.readyAt)
	// Wait chains and the cached agenda key are rebuilt by rebuildSched,
	// never serialized.
	if c.Loading() {
		u.wHead, u.wNext, u.key = 0, 0, 0
	}
	for i := range u.fwd {
		c.U64(&u.fwd[i])
	}
}
