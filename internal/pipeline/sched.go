package pipeline

import "slices"

// Event-driven issue scheduling (the default stepper).
//
// The legacy stepper re-scans every dispatched, unissued instruction in
// every cluster's issue queues every cycle. Almost all of those probes are
// provably pure no-ops: tryIssue's first test is `readyAt > now`, operand
// arrivals are cached after first computation, and a probe that fails on an
// unissued producer or a busy functional unit writes nothing. The event
// engine exploits exactly that purity: it evaluates an instruction only at
// cycles where the legacy scan's evaluation could have had a side effect,
// and in the same global order the scan would have reached it, so the two
// steppers produce byte-identical Results (proved by internal/check's
// StepperEquivalence oracle and TestStepperEquivalence* here).
//
// Three structures cooperate:
//
//   - a bucketed timing wheel of wheelSpan cycles, holding the agenda keys
//     of instructions whose next possibly-productive evaluation cycle is
//     known (operand arrival, dispatch-hop completion, functional-unit
//     free time);
//   - an overflow min-heap for wakeups beyond the wheel horizon;
//   - per-producer wait chains (uop.wHead/wNext) for instructions blocked
//     on a producer that has not issued yet (no wake cycle is computable);
//     the producer's issue — or, for loads, its memStage completion — wakes
//     the chain.
//
// Within a cycle, due instructions are evaluated in ascending packed key
// order (cluster, int-before-fp queue, seq), which is precisely the order
// the legacy nested scan visits them; the agenda is an ascending-sorted
// vector walked front to back, so instructions woken mid-cycle by a
// producer issuing earlier in the same cycle slot into their legacy
// position in the unevaluated tail. An instruction woken by a producer
// whose key is *larger* than its own re-parks for the next cycle instead —
// the legacy scan had already passed it when the producer issued.
//
// Every dispatched, unissued instruction lives in exactly one of: a wheel
// bucket, the overflow heap, a producer's wait chain, or the live agenda.
// None of this state is serialized: LoadCheckpoint rebuilds it by parking
// every in-flight unissued instruction one cycle after the snapshot point,
// which is sound because re-evaluating an instruction early is one of the
// pure no-ops above (see rebuildSched).

const (
	// wheelSpan is the timing-wheel horizon in cycles (a power of two).
	// Wakeups further out (rare: only extreme memory latencies) go to the
	// overflow heap.
	wheelSpan = 2048
	wheelMask = wheelSpan - 1

	// keySeqMask extracts the seq from a packed agenda key. Keys pack
	// (cluster, fp, seq) so that ascending key order equals the legacy
	// scan order: cluster in bits 63..60, the fp-queue bit at 59, seq
	// below. Seqs never remotely approach 2^59.
	keySeqMask = (uint64(1) << 59) - 1
	keyFPBit   = uint64(1) << 59
)

// scheduler is the event engine's working state. It is reconstructed, not
// serialized, on checkpoint load.
//
// Wheel buckets are key slices, so a bucket coming due *is* the cycle's
// agenda: the drain just takes the slice and resets the bucket's length in
// place, touching no ROB entries. Every park is a plain append; parks from
// a single evaluating cycle arrive in ascending key order, so most buckets
// are born sorted, and a park that breaks the order (parks from different
// cycles interleaving into the same bucket) only flips the bucket's dirty
// bit — the drain insertion-sorts a dirty bucket once, which on the
// nearly-sorted runs appends produce costs O(n + inversions), strictly
// cheaper than the binary-insert-with-memmove per out-of-order park it
// replaced (which was ~10% of total time on high-ILP workloads). Each
// bucket keeps its own backing array for its whole life (pre-sized from
// one arena, grown only on rare overflow past the pre-size), so the
// apparatus is allocation-free in steady state.
type scheduler struct {
	wheel    [][]uint64  // wheelSpan buckets of due agenda keys
	dirty    []bool      // dirty[b]: wheel[b] is not sorted ascending
	wheelCnt int         // total keys parked in wheel buckets
	overflow []schedWake // min-heap by (at, key): wakeups beyond the horizon
}

// bucketPresize is each wheel bucket's initial capacity (carved from one
// contiguous arena at construction). Agendas beyond it are rare — the
// affected bucket grows once and keeps the larger backing.
const bucketPresize = 64

// schedWake is one beyond-horizon wakeup.
type schedWake struct {
	at  uint64
	key uint64
}

// keyOf packs the uop's agenda key.
func (p *Processor) keyOf(u *uop) uint64 {
	k := uint64(u.cluster)<<60 | u.seq
	if u.in.Class.IsFP() {
		k |= keyFPBit
	}
	return k
}

// parkU schedules the instruction behind key for re-evaluation at cycle
// `at`, which must be in the future. Within the wheel horizon the bucket
// index is exact (every bucket is drained at its cycle, so at most one lap
// is ever in flight); beyond it the wakeup goes to the overflow heap.
func (p *Processor) parkU(key, at uint64) {
	if at-p.cycle <= wheelMask {
		b := at & wheelMask
		s := p.sched.wheel[b]
		if len(s) != 0 && key <= s[len(s)-1] {
			p.sched.dirty[b] = true
		}
		p.sched.wheel[b] = append(s, key) //simlint:alloc amortized: wheel buckets retain their capacity across wrap-arounds
		p.sched.wheelCnt++
		return
	}
	heapPushWake(&p.sched.overflow, schedWake{at: at, key: key})
}

// issueStageEvent is the event-driven issue stage: take the due wheel
// bucket as the agenda, fold in due overflow entries, then evaluate front
// to back in key order. The agenda aliases the bucket's backing, which is
// safe: parks from this cycle's evaluations always target future buckets
// (at most wheelMask ahead, never a full lap back to this index), and if a
// mid-cycle wake grows the agenda past its capacity the append reallocates
// away from the bucket, whose own length was already reset.
func (p *Processor) issueStageEvent() {
	now := p.cycle
	s := &p.sched
	b := now & wheelMask
	ag := s.wheel[b]
	if len(ag) == 0 && (len(s.overflow) == 0 || s.overflow[0].at > now) {
		return // nothing due: a stepped cycle whose work is in other stages
	}
	oldCap := cap(ag)
	s.wheel[b] = ag[:0]
	s.wheelCnt -= len(ag)
	for len(s.overflow) > 0 && s.overflow[0].at <= now {
		ag = append(ag, heapPopWake(&s.overflow).key) //simlint:alloc amortized: overflow drain refills a bucket that keeps its capacity
		s.dirty[b] = true
	}
	if s.dirty[b] {
		sortKeysAsc(ag)
		s.dirty[b] = false
	}
	for i := 0; i < len(ag); i++ {
		key := ag[i]
		u := p.at(key & keySeqMask)
		cs := &p.clusters[key>>60]
		v, at, pseq := p.tryIssueV(cs, u, now)
		switch v {
		case vIssued:
			// Loads wake their consumers when memDone is set in the
			// memory stage (an issued load's arrival is still unknown),
			// so their chains stay parked here.
			if !u.isLoad() {
				p.wakeChain(u, key, &ag, i+1)
			}
		case vWake:
			p.parkU(key, at)
		case vChain:
			prod := p.at(pseq)
			u.wNext = prod.wHead
			prod.wHead = u.seq + 1
		}
	}
	// A mid-cycle wake that grew the agenda past the bucket's capacity
	// reallocated it; keep the larger backing so the growth happens once
	// per bucket, not once per occurrence.
	if cap(ag) != oldCap {
		s.wheel[b] = ag[:0]
	}
}

// wakeChain releases every instruction chained on prod. A waiter whose key
// is greater than prodKey joins the current cycle's agenda — lo is the
// index of the agenda's unevaluated tail, which is exactly the keys still
// greater than prodKey, so the waiter slots into its legacy position (the
// legacy scan would reach it after the producer issued this cycle). A
// waiter already passed re-evaluates next cycle, exactly when the legacy
// scan would first see the producer issued. Load completions (memStage,
// which runs after issue) pass ag == nil: every waiter re-evaluates next
// cycle.
func (p *Processor) wakeChain(prod *uop, prodKey uint64, ag *[]uint64, lo int) {
	h := prod.wHead
	prod.wHead = 0
	free := p.cfg.FreeRegComm
	for h != 0 {
		w := p.at(h - 1)
		h = w.wNext
		if w.cluster == prod.cluster || free {
			// Same-cluster waiter (or free register communication): the
			// legacy probe at the wake cycle is provably pure — opArrival
			// resolves the blocked operand to the producer's doneAt with
			// no transfer, no ring reservation, and no stats, writes the
			// arrival cache, and re-parks for that cycle. Do exactly that
			// here and skip the probe entirely. Only the blocking operand
			// is cached (the probe returns on the first not-ready source,
			// and never reaches a store's data operand), so every later
			// read sees the caches exactly as the legacy scan left them.
			t := prod.doneAt
			if w.src1At == unknown && w.seq-uint64(w.in.SrcDist1) == prod.seq {
				w.src1At = t
			} else if !w.isStore() && w.src2At == unknown && w.seq-uint64(w.in.SrcDist2) == prod.seq {
				w.src2At = t
			}
			if t <= p.cycle {
				t = p.cycle + 1
			}
			p.parkU(w.key, t)
			continue
		}
		if ag != nil && w.key > prodKey {
			insertKeyAsc(ag, w.key, lo)
		} else {
			p.parkU(w.key, p.cycle+1)
		}
	}
}

// ------------------------------------------------------- fast-forward --

// fastForward, called by the run loop after a cycle in which no stage made
// progress, jumps the machine to just before the next interesting cycle.
// It returns whether a jump happened. cycleTarget is the run's absolute
// cycle bound (^uint64(0) for none); limit is the watchdog budget. ActiveSum
// is the only per-cycle accumulator, so it is the only statistic that needs
// explicit accounting across the jump.
func (p *Processor) fastForward(cycleTarget, limit uint64) bool {
	now := p.cycle
	next := p.nextEventCycle(now)
	// Never jump past the cycle where the legacy stepper would declare a
	// deadlock (lastCommitCycle+limit+1), nor past RunCycles' bound.
	if wd := p.lastCommitCycle + limit + 1; next > wd {
		next = wd
	}
	if next > cycleTarget {
		next = cycleTarget
	}
	if next <= now+1 {
		return false
	}
	skipped := next - 1 - now
	p.cycle = next - 1
	p.stats.ActiveSum += skipped * uint64(p.active)
	return true
}

// nextEventCycle computes the earliest cycle strictly after now at which
// any stage could act, given that no stage progressed at now. Sources whose
// next action is triggered by another listed event (an unissued producer's
// issue, a drain completing) are deliberately omitted: the triggering event
// sets p.progress in its own cycle, which forces the following cycle to be
// stepped, and the dependent evaluation happens there exactly as the legacy
// stepper would. Conservative `now+1` returns disable the jump for the rare
// states whose wake cycle is not cheaply computable.
func (p *Processor) nextEventCycle(now uint64) uint64 {
	next := ^uint64(0)
	min := func(t uint64) {
		if t > now && t < next {
			next = t
		}
	}

	// Commit: the window head's completion. An unissued head wakes through
	// the wheel (or, transitively, a pending load); a head that was ready
	// this cycle would have retired and set progress.
	if p.headSeq < p.tailSeq {
		u := p.at(p.headSeq)
		if u.issued {
			switch {
			case u.isLoad():
				if u.memDone {
					if u.doneAt <= now {
						return now + 1
					}
					min(u.doneAt)
				}
				// !memDone is covered by the pendingLoads walk below.
			case u.isStore():
				ready := true
				if u.agenDoneAt > now {
					min(u.agenDoneAt)
					ready = false
				}
				if u.src2At == unknown {
					// Data producer unissued or an un-done load: its
					// issue/completion sets progress, and commit's
					// opArrival re-runs the following cycle.
					ready = false
				} else if u.src2At > now {
					min(u.src2At)
					ready = false
				}
				if p.cfg.Cache == DecentralizedCache && u.resolveGlobalAt > now {
					min(u.resolveGlobalAt)
					ready = false
				}
				if ready {
					return now + 1
				}
			default:
				if u.doneAt <= now {
					return now + 1
				}
				min(u.doneAt)
			}
		}
	}

	// Memory stage: store-dummy dissolutions and pending loads.
	for i := range p.dummyReleases {
		if p.dummyReleases[i].at <= now {
			return now + 1
		}
		min(p.dummyReleases[i].at)
	}
	for _, seq := range p.pendingLoads {
		u := p.at(seq)
		if u.agenDoneAt > now {
			min(u.agenDoneAt)
			continue
		}
		if u.waitStore != 0 {
			wseq := u.waitStore - 1
			if wseq >= p.headSeq {
				s := p.at(wseq)
				if s.isStore() && s.seq == wseq {
					if !s.issued {
						continue // the store's issue sets progress
					}
					resolveAt := s.agenDoneAt
					if p.cfg.Cache == DecentralizedCache && s.cluster != u.cluster {
						resolveAt = s.resolveGlobalAt
					}
					if resolveAt <= now {
						return now + 1
					}
					min(resolveAt)
					continue
				}
			}
			// Stale blocker (unreachable after this cycle's memStage
			// ran, kept as a conservative guard).
			return now + 1
		}
		// Address known, no recorded blocker: the ordering walk stopped
		// on a forwarding match whose data is not ready. The data cycle
		// is not recorded on the load, so give up on jumping.
		return now + 1
	}

	// Dispatch: the head fetch-queue entry's front-end latency and the
	// post-reconfiguration resume cycle. A head entry that is past its
	// earliest cycle is blocked on ROB/register/queue space, all of which
	// are freed only by events that set progress.
	if p.resumeAt > now {
		min(p.resumeAt)
	}
	if p.fqLen > 0 {
		if e := &p.fq[p.fqHead]; e.earliest > now {
			min(e.earliest)
		}
	}

	// Fetch: instruction-cache fill stalls and the mispredict redirect.
	// fetchResumeAt == 0 means the blocking control transfer has not
	// issued; its issue sets both fetchResumeAt and progress.
	if p.fetchStallUntil > now {
		min(p.fetchStallUntil)
	}
	if p.fetchBlockedSeq != unknown && p.fetchResumeAt > 0 {
		min(p.fetchResumeAt)
	}

	// Observation probes must run at their exact cycles.
	if p.nextSample != noSample {
		min(p.nextSample)
	}

	// Issue wakeups: the overflow heap's top and the first non-empty
	// wheel bucket. The wheel scan is bounded by the best candidate so
	// far, so its cost is amortized by the length of the jump it enables.
	if len(p.sched.overflow) > 0 {
		min(p.sched.overflow[0].at)
	}
	if p.sched.wheelCnt > 0 {
		for t := now + 1; t < next && t <= now+wheelMask; t++ {
			if len(p.sched.wheel[t&wheelMask]) != 0 {
				min(t)
				break
			}
		}
	}
	return next
}

// rebuildSched reconstructs the event engine's state after LoadCheckpoint:
// issue-queue occupancy counters from the serialized queues, the LSQ-full
// count, and — in event mode — one wakeup per in-flight unissued
// instruction at the cycle after the snapshot. Early re-evaluation is pure
// (the readyAt guard and operand caches make premature probes no-ops), so
// every instruction re-parks or re-chains onto its original schedule.
func (p *Processor) rebuildSched() {
	p.iqOcc = 0
	for ci := range p.clusters {
		cs := &p.clusters[ci]
		cs.nInt = len(cs.iqInt)
		cs.nFP = len(cs.iqFP)
		p.iqOcc += cs.nInt + cs.nFP
	}
	p.recountLSQFull()
	if p.cfg.LegacyStepper {
		return
	}
	s := &p.sched
	for i := range s.wheel {
		s.wheel[i] = s.wheel[i][:0]
		s.dirty[i] = false
	}
	s.wheelCnt = 0
	s.overflow = s.overflow[:0]
	for seq := p.headSeq; seq < p.tailSeq; seq++ {
		u := p.at(seq)
		if !u.issued {
			u.key = p.keyOf(u)
			p.parkU(u.key, p.cycle+1)
		}
	}
	p.clearIQLists()
}

// recountLSQFull recomputes the count of active clusters with a full LSQ
// (the O(1) replacement for dispatch's per-store dummy-slot scan). Called
// whenever the active set changes and on checkpoint load.
func (p *Processor) recountLSQFull() {
	n := 0
	for c := 0; c < p.active; c++ {
		if p.clusters[c].lsq >= p.cfg.LSQPerCluster {
			n++
		}
	}
	p.lsqFull = n
}

// lsqDelta adjusts a cluster's LSQ occupancy, maintaining the full count
// for clusters in the active set.
func (p *Processor) lsqDelta(c, d int) {
	cs := &p.clusters[c]
	if c >= p.active {
		cs.lsq += d
		return
	}
	was := cs.lsq >= p.cfg.LSQPerCluster
	cs.lsq += d
	full := cs.lsq >= p.cfg.LSQPerCluster
	if full != was {
		if full {
			p.lsqFull++
		} else {
			p.lsqFull--
		}
	}
}

// fillIQLists materializes the per-cluster issue-queue slices from the ROB
// (event mode keeps them empty); dispatched, unissued seqs in ascending
// order is exactly the legacy stepper's compacted queue content, so
// snapshots stay format- and byte-compatible across steppers.
func (p *Processor) fillIQLists() {
	for seq := p.headSeq; seq < p.tailSeq; seq++ {
		u := p.at(seq)
		if u.issued {
			continue
		}
		cs := &p.clusters[u.cluster]
		q := cs.iqFor(u.in.Class)
		*q = append(*q, seq)
	}
}

// clearIQLists empties the issue-queue slices (event mode's steady state).
func (p *Processor) clearIQLists() {
	for ci := range p.clusters {
		cs := &p.clusters[ci]
		cs.iqInt = cs.iqInt[:0]
		cs.iqFP = cs.iqFP[:0]
	}
}

// ---------------------------------------------- agenda & heap helpers --
//
// The agenda is sorted ascending before evaluation walks it front to
// back; parks are plain appends and a bucket whose appends broke the
// order is sorted once at drain. Everything is hand-rolled on plain
// slices or uses the allocation-free generic slices.Sort —
// container/heap and sort.Slice allocate, and these paths run every
// cycle.

// sortKeysAsc sorts a drained dirty bucket ascending. Dirty buckets are
// concatenations of ascending append runs: tiny ones are cheapest under
// insertion sort, anything larger goes to pdqsort, whose run handling
// beats insertion sort's O(n + inversions) once runs interleave (the
// FU-contention pattern on high-ILP workloads).
func sortKeysAsc(s []uint64) {
	if len(s) > 12 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		k := s[i]
		j := i - 1
		for j >= 0 && s[j] > k {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = k
	}
}

// insertKeyAsc inserts k into the ascending-sorted tail s[lo:] of a sorted
// slice (binary search plus shift; keys are unique, and k belongs at or
// after lo). Used only for mid-evaluation wakes into the live agenda.
func insertKeyAsc(h *[]uint64, k uint64, lo int) {
	s := append(*h, 0) //simlint:alloc amortized: the live agenda retains its capacity across cycles
	hi := len(s) - 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(s[lo+1:], s[lo:len(s)-1])
	s[lo] = k
	*h = s
}

func wakeLess(a, b schedWake) bool {
	return a.at < b.at || (a.at == b.at && a.key < b.key)
}

func heapPushWake(h *[]schedWake, w schedWake) {
	s := append(*h, w) //simlint:alloc amortized: the wake heap retains its capacity across cycles
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !wakeLess(s[i], s[parent]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

func heapPopWake(h *[]schedWake) schedWake {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	n := len(s)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && wakeLess(s[l], s[small]) {
			small = l
		}
		if r < n && wakeLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}
