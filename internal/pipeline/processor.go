package pipeline

import (
	"fmt"
	"sync/atomic"

	"clustersim/internal/bpred"
	"clustersim/internal/interconnect"
	"clustersim/internal/isa"
	"clustersim/internal/mem"
	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
	"clustersim/internal/workload"
)

// Processor is one simulated clustered machine bound to a workload and an
// optional reconfiguration Controller. It is not safe for concurrent use.
type Processor struct {
	cfg    Config
	gen    workload.Generator
	ctrl   Controller
	policy string //simlint:nostate the run's PolicyName, fixed by New and checked by the snapshot header
	net    interconnect.Network
	memsys mem.System
	bp     *bpred.Predictor
	bankp  *bpred.BankPredictor

	cycle     uint64
	committed uint64

	rob      []uop
	robMask  uint64 // len(rob)-1; rob is sized to a power of two
	headSeq  uint64 // oldest in-flight seq
	tailSeq  uint64 // next seq to dispatch
	fetchSeq uint64 // next seq to fetch

	fq     []fqEntry
	fqHead int
	fqLen  int
	fqCap  int // logical capacity (cfg.FetchQueue); len(fq) is the pow-2 ring size
	fqMask int // len(fq)-1; fq is sized to a power of two

	clusters []clusterState
	active   int
	lsqTotal int // centralized LSQ occupancy
	lsqFull  int // active clusters at LSQ capacity (decentralized dummy gate)
	iqOcc    int // total issue-queue occupancy across all clusters

	// sched is the event stepper's wheel/chain state (see sched.go);
	// rebuilt from the ROB on checkpoint load, never serialized.
	sched scheduler

	// progress records whether any stage did work this cycle; when false,
	// the run loop may fast-forward over provably idle cycles.
	//simlint:nostate per-cycle scratch, reset at the top of every step
	progress bool

	// Decentralized reconfiguration state.
	draining      bool
	pendingActive int
	resumeAt      uint64

	// Front-end redirect state.
	fetchBlockedSeq uint64 // unknown when fetch is unblocked
	fetchResumeAt   uint64

	stores        []uint64 // seqs of in-flight stores, ascending
	storesHead    int
	pendingLoads  []uint64
	dummyReleases []dummyRelease

	modNCluster, modNCount int

	icache          *mem.ICache
	dtlb            *mem.TLB
	fetchStallUntil uint64
	lastFetchLine   uint64

	lastCommitCycle uint64
	stats           Result

	// stop, when non-nil, is polled every stopCheckMask+1 cycles by Run and
	// RunCycles; raising it makes the run return a *StoppedError. The
	// runner uses it to enforce wall-clock timeouts without killing the
	// process.
	//simlint:nostate runner-owned stop flag, re-armed by the resuming runner
	stop *atomic.Bool

	// Observability. obs is nil when disabled, making every hook a single
	// pointer test; nextSample is the next probe cycle (noSample when
	// sampling is off).
	obs        *obs.Observer
	oh         obsHandles //simlint:nostate observability handles; Checkpointable refuses runs with an observer attached
	nextSample uint64     //simlint:nostate observability cursor; Checkpointable refuses runs with an observer attached

	// Validation. chk is nil when disabled, making the per-cycle hook a
	// single pointer test; view is the reusable state snapshot handed to
	// the checker (see check.go).
	chk  Checker
	view MachineView //simlint:nostate checker scratch; Checkpointable refuses runs with a checker attached

	// Wall-clock phase attribution. ptimer is nil when disabled, making the
	// per-cycle hook a single pointer test; a sampled cycle runs stepTimed
	// instead of the plain stage sequence.
	ptimer *telemetry.PhaseTimer //simlint:nostate attribution-only wall-clock timer; never influences simulated state
}

// New builds a Processor. A nil Controller leaves the active-cluster count
// fixed at cfg.ActiveClusters.
func New(cfg Config, gen workload.Generator, ctrl Controller) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil {
		return nil, fmt.Errorf("pipeline: nil workload generator")
	}
	p := &Processor{cfg: cfg, gen: gen, ctrl: ctrl, ptimer: cfg.Phases}

	var err error
	switch cfg.Topology {
	case GridTopology:
		p.net, err = interconnect.NewGrid(cfg.Clusters, cfg.HopLatency)
	default:
		p.net, err = interconnect.NewRing(cfg.Clusters, cfg.HopLatency)
	}
	if err != nil {
		return nil, err
	}

	mcfg := mem.DefaultCentralConfig(cfg.Clusters)
	if cfg.Cache == DecentralizedCache {
		mcfg = mem.DefaultDistConfig(cfg.Clusters)
	}
	if cfg.CacheConfig != nil {
		mcfg = *cfg.CacheConfig
	}
	msys, err := mem.New(mcfg, p.net)
	if err != nil {
		return nil, err
	}
	// The decentralized L1 interleaves over the active clusters' banks
	// only (§5), from the first cycle on.
	msys.SetActive(cfg.ActiveClusters)
	p.memsys = msys
	if cfg.FreeLoadComm && cfg.Cache == CentralizedCache {
		type freeable interface{ SetFreeLoadComm(bool) }
		if f, ok := msys.(freeable); ok {
			f.SetFreeLoadComm(true)
		}
	}

	p.bp, err = bpred.New(bpred.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if cfg.Cache == DecentralizedCache {
		kcfg := bpred.DefaultBankConfig()
		kcfg.MaxBanks = cfg.Clusters
		p.bankp, err = bpred.NewBank(kcfg)
		if err != nil {
			return nil, err
		}
	}

	// The ROB ring is sized to the next power of two so entry lookup is
	// a mask instead of a division (the logical capacity stays cfg.ROB).
	robLen := 1
	for robLen < cfg.ROB {
		robLen <<= 1
	}
	p.rob = make([]uop, robLen)
	p.robMask = uint64(robLen - 1)
	// The fetch queue is a power-of-two ring for the same reason; its
	// logical capacity stays cfg.FetchQueue.
	fqLen := 1
	for fqLen < cfg.FetchQueue {
		fqLen <<= 1
	}
	p.fq = make([]fqEntry, fqLen)
	p.fqCap = cfg.FetchQueue
	p.fqMask = fqLen - 1
	if !cfg.LegacyStepper {
		p.sched.wheel = make([][]uint64, wheelSpan)
		p.sched.dirty = make([]bool, wheelSpan)
		arena := make([]uint64, wheelSpan*bucketPresize)
		for i := range p.sched.wheel {
			// Capacity-limited subslices: a bucket overflowing its
			// pre-size reallocates privately instead of bleeding into
			// its neighbor's arena segment.
			p.sched.wheel[i], arena = arena[:0:bucketPresize], arena[bucketPresize:]
		}
	}
	// Scratch slices sized for their steady-state maxima so the hot loops
	// never grow them: in-flight stores are bounded by the ROB plus the
	// popStore compaction threshold, pending loads by the ROB, and dummy
	// releases by the total LSQ dummy capacity.
	p.stores = make([]uint64, 0, 4096+cfg.ROB)
	p.pendingLoads = make([]uint64, 0, cfg.ROB)
	p.dummyReleases = make([]dummyRelease, 0, cfg.Clusters*cfg.LSQPerCluster)
	p.clusters = make([]clusterState, cfg.Clusters)
	for i := range p.clusters {
		p.clusters[i] = newClusterState(&cfg)
	}
	p.active = cfg.ActiveClusters
	p.fetchBlockedSeq = unknown
	p.icache = mem.NewICache(mem.DefaultICacheConfig())
	p.lastFetchLine = ^uint64(0)
	p.dtlb = mem.NewTLB(mem.DefaultTLBConfig())
	if ctrl != nil {
		ctrl.Reset(cfg.Clusters)
	}
	p.policy = PolicyName(ctrl, cfg.ActiveClusters)
	p.initObs(cfg.Observer)
	p.initCheck(cfg.Checker)
	if p.obs != nil && ctrl != nil {
		// Attach after Reset: controllers re-zero their state on Reset.
		if oa, ok := ctrl.(ObserverAware); ok {
			oa.AttachObserver(p.obs)
		}
	}
	return p, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, gen workload.Generator, ctrl Controller) *Processor {
	p, err := New(cfg, gen, ctrl)
	if err != nil {
		panic(err)
	}
	return p
}

// ActiveClusters returns the current number of dispatch-enabled clusters.
func (p *Processor) ActiveClusters() int { return p.active }

// Cycle returns the current cycle number.
func (p *Processor) Cycle() uint64 { return p.cycle }

// Committed returns the number of committed instructions.
func (p *Processor) Committed() uint64 { return p.committed }

// at returns the ROB entry for an in-flight seq.
func (p *Processor) at(seq uint64) *uop { return &p.rob[seq&p.robMask] }

// stopCheckMask throttles the external-stop-flag poll to one atomic load
// every 1024 cycles, keeping it invisible in the hot loop.
const stopCheckMask = 1023

// SetStopFlag installs an externally owned stop flag. When flag is raised,
// the current (or next) Run/RunCycles call returns a *StoppedError at the
// next poll point. Pass nil to detach. The flag is the only Processor state
// that may be touched from another goroutine.
func (p *Processor) SetStopFlag(flag *atomic.Bool) { p.stop = flag }

// watchdogLimit returns the no-commit cycle budget before a deadlock is
// declared.
func (p *Processor) watchdogLimit() uint64 {
	if p.cfg.WatchdogCycles > 0 {
		return p.cfg.WatchdogCycles
	}
	return 500_000
}

// deadlockError captures the machine's position for a watchdog failure.
func (p *Processor) deadlockError() *DeadlockError {
	return &DeadlockError{
		Cycle:           p.cycle,
		Committed:       p.committed,
		LastCommitCycle: p.lastCommitCycle,
		HeadSeq:         p.headSeq,
		TailSeq:         p.tailSeq,
		FetchSeq:        p.fetchSeq,
		FetchBlockedSeq: p.fetchBlockedSeq,
		Draining:        p.draining,
		Active:          p.active,
	}
}

// Run simulates until n more instructions commit and returns cumulative
// statistics. It may be called repeatedly to extend a run. A wedged pipeline
// surfaces as a *DeadlockError (with the statistics accumulated so far); an
// externally raised stop flag surfaces as a *StoppedError.
func (p *Processor) Run(n uint64) (Result, error) {
	return p.run(p.committed+n, ^uint64(0))
}

// RunCycles simulates exactly n more cycles (regardless of commits) and
// returns cumulative statistics. Multi-threaded studies use this to advance
// co-scheduled machines in lockstep time slices. Deadlock and external stops
// are reported like Run's.
func (p *Processor) RunCycles(n uint64) (Result, error) {
	return p.run(^uint64(0), p.cycle+n)
}

// run steps until commitTarget instructions have committed or the clock
// reaches cycleTarget, whichever comes first; ^uint64(0) leaves a target
// unbounded.
func (p *Processor) run(commitTarget, cycleTarget uint64) (Result, error) {
	limit := p.watchdogLimit()
	ff := p.canFastForward()
	for p.committed < commitTarget && p.cycle < cycleTarget {
		p.step()
		jumped := ff && !p.progress && p.fastForward(cycleTarget, limit)
		if p.cycle-p.lastCommitCycle > limit {
			return p.Stats(), p.deadlockError()
		}
		if p.stop != nil && (jumped || p.cycle&stopCheckMask == 0) && p.stop.Load() {
			return p.Stats(), &StoppedError{Cycle: p.cycle, Committed: p.committed}
		}
	}
	return p.Stats(), nil
}

// canFastForward reports whether the run loop may jump over idle cycles:
// only the event stepper tracks the wakeup calendar the jump needs, and an
// attached checker must observe every cycle.
func (p *Processor) canFastForward() bool {
	return !p.cfg.LegacyStepper && p.chk == nil
}

// step advances the machine by one cycle. It anchors the hotalloc
// analysis: everything reachable from here inside the package must stay
// allocation-free (the alloc-budget tests measure the same property at
// run time).
//
//simlint:hot
func (p *Processor) step() {
	if p.ptimer != nil && p.ptimer.Due(p.cycle+1) {
		p.stepTimed()
		return
	}
	p.cycle++
	p.progress = false
	p.commitStage()
	p.reconfigStage()
	p.issueStage()
	p.memStage()
	p.dispatchStage()
	p.fetchStage()
	p.stats.ActiveSum += uint64(p.active)
	if p.cycle >= p.nextSample {
		p.observeSample()
	}
	if p.chk != nil {
		p.checkCycle()
	}
}

// stepTimed is step for a sampled cycle: the identical stage sequence with a
// phase-timer lap between stages. It is a mirror rather than inline timing
// branches so the untimed hot path pays only the single Due test — the clock
// reads live here (inside telemetry), never in the plain step.
//
//simlint:hot
func (p *Processor) stepTimed() {
	cur := p.ptimer.Begin()
	p.cycle++
	p.progress = false
	p.commitStage()
	cur = p.ptimer.Lap(telemetry.PhaseCommit, cur)
	p.reconfigStage()
	cur = p.ptimer.Lap(telemetry.PhaseReconfig, cur)
	p.issueStage()
	cur = p.ptimer.Lap(telemetry.PhaseIssue, cur)
	p.memStage()
	cur = p.ptimer.Lap(telemetry.PhaseMem, cur)
	p.dispatchStage()
	cur = p.ptimer.Lap(telemetry.PhaseDispatch, cur)
	p.fetchStage()
	cur = p.ptimer.Lap(telemetry.PhaseFetch, cur)
	p.stats.ActiveSum += uint64(p.active)
	if p.cycle >= p.nextSample {
		p.observeSample()
	}
	if p.chk != nil {
		p.checkCycle()
	}
	p.ptimer.Lap(telemetry.PhaseObserve, cur)
}

// Stats returns cumulative run statistics.
func (p *Processor) Stats() Result {
	r := p.stats
	r.Benchmark = p.gen.Name()
	r.Policy = p.policy
	r.Cycles = p.cycle
	r.Instructions = p.committed
	r.Mem = p.memsys.Stats()
	r.Net = p.net.Stats()
	r.Branch = p.bp.Stats()
	if p.bankp != nil {
		r.Bank = p.bankp.Stats()
	}
	r.ICacheMisses = p.icache.Misses()
	r.TLBMisses = p.dtlb.Misses()
	if p.obs != nil && p.obs.Registry != nil {
		p.syncObsCounters()
	}
	return r
}

// ---------------------------------------------------------------- commit --

func (p *Processor) commitStage() {
	now := p.cycle
	for n := 0; n < p.cfg.CommitWidth && p.headSeq < p.tailSeq; n++ {
		u := p.at(p.headSeq)
		if !u.issued {
			return
		}
		switch {
		case u.isLoad():
			if !u.memDone || u.doneAt > now {
				return
			}
		case u.isStore():
			if u.agenDoneAt > now {
				return
			}
			if p.opArrival(u, u.in.SrcDist2, &u.src2At) > now {
				return
			}
			if p.cfg.Cache == DecentralizedCache && u.resolveGlobalAt > now {
				return
			}
		default:
			if u.doneAt > now {
				return
			}
		}

		// Retire.
		cs := &p.clusters[u.cluster]
		if u.in.HasDest {
			if u.in.Class.IsFP() {
				cs.fpRegs--
			} else {
				cs.intRegs--
			}
		}
		if u.in.Class.IsMem() {
			if p.cfg.Cache == CentralizedCache {
				p.lsqTotal--
			} else {
				p.lsqDelta(int(u.cluster), -1)
			}
			if u.isStore() {
				p.memsys.StoreCommit(now+p.dtlb.Translate(u.in.Addr), int(u.cluster), u.in.Addr)
				p.popStore(u.seq)
			}
		}
		if u.distant {
			p.stats.DistantCommitted++
		}
		if u.mispredicted {
			p.stats.Redirects++
			if p.obs != nil {
				p.observeRedirect(now, u.seq, u.in.PC)
			}
		}
		cls := u.in.Class
		ev := CommitEvent{
			Cycle:        now,
			Seq:          u.seq,
			PC:           u.in.PC,
			IsBranch:     cls == isa.Branch,
			IsCall:       cls == isa.Call,
			IsReturn:     cls == isa.Return,
			IsMem:        cls.IsMem(),
			Distant:      u.distant,
			Mispredicted: u.mispredicted,
		}
		p.headSeq++
		p.committed++
		p.lastCommitCycle = now
		p.progress = true
		if p.ctrl != nil {
			if want := p.ctrl.OnCommit(ev); want > 0 {
				p.requestActive(want)
			}
		}
	}
}

// popStore removes seq from the store window (always the oldest store).
func (p *Processor) popStore(seq uint64) {
	if p.storesHead < len(p.stores) && p.stores[p.storesHead] == seq {
		p.storesHead++
		if p.storesHead > 4096 {
			p.stores = append(p.stores[:0], p.stores[p.storesHead:]...) //simlint:alloc compaction copies into the slice's own capacity; the window is bounded by the store queue
			p.storesHead = 0
		}
		return
	}
	// A store must retire in order; anything else is a bookkeeping bug.
	//simlint:allow nopanic scoreboard-corruption invariant, unreachable from any configuration; the watchdog recover turns it into a DeadlockError dump
	panic("pipeline: store retired out of order")
}

// ------------------------------------------------------------- reconfig --

// requestActive asks for want active clusters.
func (p *Processor) requestActive(want int) {
	if want < 1 {
		want = 1
	}
	if want > p.cfg.Clusters {
		want = p.cfg.Clusters
	}
	if p.cfg.Cache == CentralizedCache {
		if want != p.active {
			old := p.active
			p.active = want
			p.recountLSQFull()
			p.progress = true
			p.stats.Reconfigs++
			if p.obs != nil {
				p.observeReconfig(old, want, 0, 0)
			}
		}
		return
	}
	// Decentralized: drain, flush, then switch (§5).
	if p.draining {
		p.pendingActive = want
		return
	}
	if want != p.active {
		p.draining = true
		p.pendingActive = want
	}
}

func (p *Processor) reconfigStage() {
	if !p.draining || p.headSeq != p.tailSeq {
		return
	}
	done, writebacks := p.memsys.Flush(p.cycle)
	old := p.active
	p.memsys.SetActive(p.pendingActive)
	p.active = p.pendingActive
	p.recountLSQFull()
	p.resumeAt = done
	p.draining = false
	p.progress = true
	p.stats.Reconfigs++
	if p.obs != nil {
		p.observeReconfig(old, p.active, writebacks, done-p.cycle)
	}
}

// ---------------------------------------------------------------- issue --

// opArrival returns the cycle the operand dist back from u is available in
// u's cluster, or unknown if its producer has not issued. The result is
// cached in *cache; inter-cluster transfers reserve network links once per
// (producer, consumer-cluster) pair.
func (p *Processor) opArrival(u *uop, dist uint32, cache *uint64) uint64 {
	if *cache != unknown {
		return *cache
	}
	if dist == 0 {
		*cache = 0
		return 0
	}
	pseq := u.seq - uint64(dist)
	if uint64(dist) > u.seq || pseq < p.headSeq {
		*cache = 0 // producer retired; value is architected
		return 0
	}
	prod := p.at(pseq)
	if !prod.issued {
		return unknown
	}
	if prod.isLoad() && !prod.memDone {
		return unknown
	}
	t := prod.doneAt
	c := int(u.cluster)
	if c != int(prod.cluster) && !p.cfg.FreeRegComm {
		if prod.fwd[c] == 0 {
			arr := p.net.Send(t, int(prod.cluster), c)
			prod.fwd[c] = arr
			p.stats.RegTransfers++
			p.stats.RegLatencySum += arr - t
		}
		t = prod.fwd[c]
	}
	*cache = t
	return t
}

func (p *Processor) issueStage() {
	if !p.cfg.LegacyStepper {
		p.issueStageEvent()
		return
	}
	now := p.cycle
	for ci := range p.clusters {
		cs := &p.clusters[ci]
		p.issueQueue(cs, &cs.iqInt, now)
		p.issueQueue(cs, &cs.iqFP, now)
	}
}

// issueQueue scans one issue queue oldest-first, issuing every ready
// instruction whose functional unit is free, and compacts the queue.
func (p *Processor) issueQueue(cs *clusterState, q *[]uint64, now uint64) {
	s := *q
	out := s[:0]
	for _, seq := range s {
		u := p.at(seq)
		if v, _, _ := p.tryIssueV(cs, u, now); v != vIssued {
			out = append(out, seq) //simlint:alloc in-place filter over s[:0]; writes never outrun reads of the same backing array
		}
	}
	*q = out
}

// issueVerdict is tryIssueV's outcome: issued, re-check at a known future
// cycle, or blocked on an unissued producer (no wake cycle computable).
type issueVerdict uint8

const (
	vWake issueVerdict = iota
	vChain
	vIssued
)

// tryIssueV attempts to issue u at cycle now. On vWake, `at` is the sound
// re-evaluation cycle (strictly future); on vChain, `pseq` is the unissued
// (or not-yet-done load) producer to wait on. The legacy stepper ignores
// everything but the vIssued outcome; the event stepper parks or chains on
// the rest.
func (p *Processor) tryIssueV(cs *clusterState, u *uop, now uint64) (v issueVerdict, at, pseq uint64) {
	if u.readyAt > now {
		return vWake, u.readyAt, 0
	}
	if u.dispatchReady > now {
		u.readyAt = u.dispatchReady
		return vWake, u.dispatchReady, 0
	}
	// The cached-arrival hit is checked inline: most evaluations run with
	// both arrivals already known (precomputed at dispatch or cached by
	// an earlier probe), and the call is pure overhead then.
	a := u.src1At
	if a == unknown {
		a = p.opArrival(u, u.in.SrcDist1, &u.src1At)
	}
	if a > now {
		if a != unknown {
			u.readyAt = a
			return vWake, a, 0
		}
		return vChain, 0, u.seq - uint64(u.in.SrcDist1)
	}
	// Stores issue address generation without waiting for data; all other
	// two-operand instructions need both.
	if !u.isStore() {
		a = u.src2At
		if a == unknown {
			a = p.opArrival(u, u.in.SrcDist2, &u.src2At)
		}
		if a > now {
			if a != unknown {
				u.readyAt = a
				return vWake, a, 0
			}
			return vChain, 0, u.seq - uint64(u.in.SrcDist2)
		}
	}
	cls := u.in.Class
	lat := uint64(cls.Latency())
	busyUntil := now + 1
	if !cls.Pipelined() {
		busyUntil = now + lat
	}
	if ok, next := cs.takeFU(fuFor(cls), now, busyUntil); !ok {
		return vWake, next, 0
	}

	if cls.IsFP() {
		cs.nFP--
	} else {
		cs.nInt--
	}
	p.iqOcc--
	p.progress = true
	u.issued = true
	u.issueAt = now
	if u.seq-p.headSeq >= uint64(p.cfg.DistantDepth) {
		u.distant = true
		p.stats.DistantIssued++
	}

	switch {
	case u.isLoad():
		u.agenDoneAt = now + lat
		p.pendingLoads = append(p.pendingLoads, u.seq) //simlint:alloc amortized: pendingLoads reaches LSQ-bounded capacity once, then is reused
	case u.isStore():
		u.agenDoneAt = now + lat
		u.doneAt = u.agenDoneAt
		p.storeResolved(u)
	default:
		u.doneAt = now + lat
		if u.in.Class.IsCtrl() && u.seq == p.fetchBlockedSeq {
			// Redirect: the correct target travels back to the
			// front-end next to cluster 0.
			hops := uint64(p.net.Hops(int(u.cluster), 0)) * uint64(p.cfg.HopLatency)
			p.fetchResumeAt = u.doneAt + hops + 1
		}
	}
	if u.in.Class.IsMem() {
		p.trainBank(u)
	}
	return vIssued, 0, 0
}

// storeResolved handles a store's address becoming known: under the
// decentralized LSQ the address is broadcast to dissolve the dummy slots in
// the other active clusters (§5).
func (p *Processor) storeResolved(u *uop) {
	if p.cfg.Cache == CentralizedCache {
		u.resolveGlobalAt = u.agenDoneAt
		return
	}
	active := int(u.activeAtDispatch)
	u.resolveGlobalAt = p.net.Broadcast(u.agenDoneAt, int(u.cluster), active)
	p.stats.StoreBroadcasts++
	for c := 0; c < active; c++ {
		if c == int(u.cluster) {
			continue
		}
		p.dummyReleases = append(p.dummyReleases, dummyRelease{at: u.resolveGlobalAt, cluster: int32(c)}) //simlint:alloc amortized: dummyReleases reaches cluster-bounded capacity once, then is reused
	}
}

// trainBank updates the bank predictor with the memory operation's actual
// bank and records bank mispredictions.
func (p *Processor) trainBank(u *uop) {
	if p.bankp == nil {
		return
	}
	actual := p.memsys.Bank(u.in.Addr)
	p.bankp.Update(u.in.PC, actual, int(u.activeAtDispatch))
	if !p.cfg.PerfectBankPred {
		if p.memsys.HomeCluster(u.in.Addr) != int(u.predictedHome) {
			u.bankMispred = true
			p.stats.BankMispredicts++
		}
	}
}

// ------------------------------------------------------------------ mem --

func (p *Processor) memStage() {
	now := p.cycle
	// Dissolve store dummy slots whose broadcast has arrived.
	if len(p.dummyReleases) > 0 {
		kept := p.dummyReleases[:0]
		for _, d := range p.dummyReleases {
			if d.at <= now {
				p.lsqDelta(int(d.cluster), -1)
				p.progress = true
			} else {
				kept = append(kept, d) //simlint:alloc in-place filter over dummyReleases[:0]; same backing array
			}
		}
		p.dummyReleases = kept
	}
	// Try to start memory access for loads whose address is known.
	if len(p.pendingLoads) > 0 {
		kept := p.pendingLoads[:0]
		for _, seq := range p.pendingLoads {
			u := p.at(seq)
			if u.agenDoneAt > now || !p.tryStartLoad(u, now) {
				kept = append(kept, seq) //simlint:alloc in-place filter over pendingLoads[:0]; same backing array
			} else {
				// The load's arrival is now computable: wake chained
				// consumers for the next cycle, when the legacy scan
				// would first see memDone (issue precedes mem).
				p.progress = true
				p.wakeChain(u, 0, nil, 0)
			}
		}
		p.pendingLoads = kept
	}
}

// tryStartLoad checks memory ordering for a load and, when clear, either
// forwards from an older matching store or accesses the cache. It returns
// whether the load's completion is now scheduled.
func (p *Processor) tryStartLoad(u *uop, now uint64) bool {
	// Fast path: if a previous walk blocked on a specific store, nothing
	// can have changed until that store resolves.
	if u.waitStore != 0 {
		wseq := u.waitStore - 1
		if wseq >= p.headSeq {
			s := p.at(wseq)
			if s.isStore() && s.seq == wseq {
				resolveAt := s.agenDoneAt
				if p.cfg.Cache == DecentralizedCache && s.cluster != u.cluster {
					resolveAt = s.resolveGlobalAt
				}
				if !s.issued || resolveAt > now {
					return false
				}
			}
		}
		u.waitStore = 0
	}
	// Walk older in-flight stores youngest-first. An unresolved older
	// store (or, decentralized, an undissolved dummy) blocks the load;
	// a resolved matching store forwards.
	for i := len(p.stores) - 1; i >= p.storesHead; i-- {
		sseq := p.stores[i]
		if sseq >= u.seq {
			continue
		}
		s := p.at(sseq)
		resolveAt := s.agenDoneAt
		if p.cfg.Cache == DecentralizedCache && s.cluster != u.cluster {
			resolveAt = s.resolveGlobalAt
		}
		if !s.issued || resolveAt > now {
			u.waitStore = sseq + 1
			return false
		}
		if s.in.Addr>>3 == u.in.Addr>>3 {
			// Store-to-load forwarding: data moves from the
			// store's LSQ to the load's cluster.
			dataAt := p.opArrival(s, s.in.SrcDist2, &s.src2At)
			if dataAt == unknown || dataAt > now {
				return false
			}
			t := now + 1
			if s.cluster != u.cluster && !p.cfg.FreeRegComm {
				t = p.net.Send(t, int(s.cluster), int(u.cluster))
			}
			u.doneAt = t
			u.memDone = true
			u.memStarted = true
			p.stats.LoadForwards++
			return true
		}
	}
	start := now
	if u.agenDoneAt > start {
		start = u.agenDoneAt
	}
	start += p.dtlb.Translate(u.in.Addr)
	done, _ := p.memsys.Load(start, int(u.cluster), u.in.Addr)
	u.doneAt = done
	u.memDone = true
	u.memStarted = true
	return true
}

// -------------------------------------------------------------- dispatch --

func (p *Processor) dispatchStage() {
	now := p.cycle
	if p.draining || now < p.resumeAt {
		return
	}
	for n := 0; n < p.cfg.DispatchWidth && p.fqLen > 0; n++ {
		e := &p.fq[p.fqHead]
		if e.earliest > now {
			return
		}
		if p.tailSeq-p.headSeq >= uint64(p.cfg.ROB) {
			return
		}
		in := &e.in
		// Decentralized stores need a dummy slot in every active LSQ;
		// lsqFull counts active clusters at capacity.
		if in.Class == isa.Store && p.cfg.Cache == DecentralizedCache && p.lsqFull > 0 {
			return
		}
		cl := p.steer(in, e.seq)
		if cl < 0 {
			return
		}

		u := p.at(e.seq)
		// Operand arrivals with no in-flight producer (no dependence, or
		// one already architected) are 0 now and forever; precomputing
		// them here lets the issue path skip those opArrival calls. A
		// producer in flight now may retire before the first evaluation,
		// which opArrival handles — the converse never happens.
		src1At, src2At := uint64(unknown), uint64(unknown)
		if d := uint64(in.SrcDist1); d == 0 || d > e.seq || e.seq-d < p.headSeq {
			src1At = 0
		}
		if d := uint64(in.SrcDist2); d == 0 || d > e.seq || e.seq-d < p.headSeq {
			src2At = 0
		}
		*u = uop{
			in:               *in,
			seq:              e.seq,
			cluster:          int32(cl),
			mispredicted:     e.mispred,
			activeAtDispatch: int32(p.active),
			src1At:           src1At,
			src2At:           src2At,
		}
		hops := uint64(p.net.Hops(0, cl)) * uint64(p.cfg.HopLatency)
		u.dispatchReady = now + 1 + hops

		cs := &p.clusters[cl]
		if p.cfg.LegacyStepper {
			q := cs.iqFor(in.Class)
			*q = append(*q, e.seq) //simlint:alloc amortized: legacy issue queues reach IQ-bounded capacity once, then are reused
		} else {
			// First possibly-productive evaluation is dispatchReady:
			// the legacy scan's earlier probes only observe the
			// dispatchReady guard.
			u.key = p.keyOf(u)
			p.parkU(u.key, u.dispatchReady)
		}
		if in.Class.IsFP() {
			cs.nFP++
		} else {
			cs.nInt++
		}
		p.iqOcc++
		if in.HasDest {
			if in.Class.IsFP() {
				cs.fpRegs++
			} else {
				cs.intRegs++
			}
		}
		if in.Class.IsMem() {
			if p.cfg.Cache == CentralizedCache {
				p.lsqTotal++
			} else if in.Class == isa.Store {
				for c := 0; c < p.active; c++ {
					p.lsqDelta(c, 1)
				}
			} else {
				p.lsqDelta(cl, 1)
			}
			if in.Class == isa.Store {
				p.stores = append(p.stores, e.seq) //simlint:alloc amortized: the store window grows to its 4096-entry compaction bound once
			}
			if p.cfg.Cache == DecentralizedCache {
				u.predictedHome = int32(p.predictHome(in))
			}
		}

		p.tailSeq = e.seq + 1
		p.fqHead = (p.fqHead + 1) & p.fqMask
		p.fqLen--
		p.stats.Dispatched++
		p.progress = true
	}
}

// ----------------------------------------------------------------- fetch --

func (p *Processor) fetchStage() {
	now := p.cycle
	if now < p.fetchStallUntil {
		return
	}
	if p.fetchBlockedSeq != unknown {
		if p.fetchResumeAt == 0 || now < p.fetchResumeAt {
			return
		}
		p.fetchBlockedSeq = unknown
		p.fetchResumeAt = 0
	}
	blocks := 0
	for n := 0; n < p.cfg.FetchWidth && p.fqLen < p.fqCap; n++ {
		// Fill the fetch-queue slot in place: generating into a stack
		// variable and copying it in would force a heap allocation per
		// instruction (the generator is an interface, so the compiler
		// must assume the pointer escapes).
		slot := (p.fqHead + p.fqLen) & p.fqMask
		e := &p.fq[slot]
		p.gen.Next(&e.in)
		in := &e.in
		seq := p.fetchSeq
		p.fetchSeq++

		// Instruction-cache probe on every line crossing; a miss stalls
		// the front end while the line fills (the fetched instruction
		// still enters the queue, delayed by the fill).
		extra := uint64(0)
		if line := in.PC >> p.icache.LineShift(); line != p.lastFetchLine {
			p.lastFetchLine = line
			extra = p.icache.Fetch(in.PC)
			if extra > 0 {
				p.fetchStallUntil = now + extra
			}
		}

		mispred := false
		switch in.Class {
		case isa.Branch:
			mispred = p.bp.PredictBranch(in.PC, in.Taken, in.Target)
		case isa.Call:
			mispred = p.bp.PredictCall(in.PC, in.Target)
		case isa.Return:
			mispred = p.bp.PredictReturn(in.Target)
		}

		e.seq = seq
		e.earliest = now + extra + uint64(p.cfg.FrontLatency)
		e.mispred = mispred
		p.fqLen++
		p.stats.Fetched++
		p.progress = true

		if mispred {
			p.fetchBlockedSeq = seq
			p.fetchResumeAt = 0
			return
		}
		if extra > 0 {
			return // stalled on the instruction-cache fill
		}
		if in.EndsBlock {
			blocks++
			if blocks == 2 {
				return
			}
		}
	}
}
