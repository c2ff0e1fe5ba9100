package pipeline

import "clustersim/internal/obs"

// obsHandles caches registry metric handles so the instrumented paths never
// take the registry lock after construction. All pointers may be nil (no
// registry attached); Counter/Gauge/Histogram methods are nil-safe.
type obsHandles struct {
	// Probe gauges, refreshed every sample period.
	gIQOcc    *obs.Gauge
	gLinkUtil *obs.Gauge
	gBankQ    *obs.Gauge
	gActive   *obs.Gauge
	gIPC      *obs.Gauge

	// Probe distributions across the run.
	hIQOcc    *obs.Histogram
	hLinkUtil *obs.Histogram

	// Counters synced from the cumulative Result so snapshot totals match
	// Stats() exactly.
	cCycles           *obs.Counter
	cInstructions     *obs.Counter
	cFetched          *obs.Counter
	cDispatched       *obs.Counter
	cRedirects        *obs.Counter
	cReconfigs        *obs.Counter
	cDistantIssued    *obs.Counter
	cDistantCommitted *obs.Counter
	cRegTransfers     *obs.Counter
	cL1Hits           *obs.Counter
	cL1Misses         *obs.Counter
	cNetTransfers     *obs.Counter
	cNetHops          *obs.Counter
}

// noSample disables periodic sampling (the cycle counter never reaches it).
const noSample = ^uint64(0)

// initObs wires the observer into the processor: caches metric handles and
// schedules the first probe sample.
func (p *Processor) initObs(o *obs.Observer) {
	p.obs = o
	p.nextSample = noSample
	if o == nil || !o.Enabled() {
		p.obs = nil
		return
	}
	if o.SamplePeriod > 0 {
		p.nextSample = o.SamplePeriod
	}
	if o.Registry == nil {
		return
	}
	// Issue-queue occupancy buckets span the machine's total capacity;
	// link utilization is a fraction.
	iqCap := float64(2 * p.cfg.IQPerCluster * p.cfg.Clusters)
	iqBounds := make([]float64, 0, 8)
	for f := 1.0 / 128; f <= 1; f *= 2 {
		iqBounds = append(iqBounds, iqCap*f)
	}
	p.oh = obsHandles{
		gIQOcc:    o.Gauge("probe.iq_occupancy"),
		gLinkUtil: o.Gauge("probe.link_utilization"),
		gBankQ:    o.Gauge("probe.bank_backlog"),
		gActive:   o.Gauge("probe.active_clusters"),
		gIPC:      o.Gauge("probe.ipc"),
		hIQOcc:    o.Histogram("probe.iq_occupancy.hist", iqBounds),
		hLinkUtil: o.Histogram("probe.link_utilization.hist", []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8}),

		cCycles:           o.Counter("pipeline.cycles"),
		cInstructions:     o.Counter("pipeline.instructions"),
		cFetched:          o.Counter("pipeline.fetched"),
		cDispatched:       o.Counter("pipeline.dispatched"),
		cRedirects:        o.Counter("pipeline.redirects"),
		cReconfigs:        o.Counter("pipeline.reconfigs"),
		cDistantIssued:    o.Counter("pipeline.distant_issued"),
		cDistantCommitted: o.Counter("pipeline.distant_committed"),
		cRegTransfers:     o.Counter("pipeline.reg_transfers"),
		cL1Hits:           o.Counter("mem.l1_hits"),
		cL1Misses:         o.Counter("mem.l1_misses"),
		cNetTransfers:     o.Counter("net.transfers"),
		cNetHops:          o.Counter("net.hops"),
	}
}

// syncObsCounters stores the cumulative totals into the registry, so a live
// snapshot (and the final exported one) agrees with Stats().
func (p *Processor) syncObsCounters() {
	p.oh.cCycles.Store(p.cycle)
	p.oh.cInstructions.Store(p.committed)
	p.oh.cFetched.Store(p.stats.Fetched)
	p.oh.cDispatched.Store(p.stats.Dispatched)
	p.oh.cRedirects.Store(p.stats.Redirects)
	p.oh.cReconfigs.Store(p.stats.Reconfigs)
	p.oh.cDistantIssued.Store(p.stats.DistantIssued)
	p.oh.cDistantCommitted.Store(p.stats.DistantCommitted)
	p.oh.cRegTransfers.Store(p.stats.RegTransfers)
	ms := p.memsys.Stats()
	p.oh.cL1Hits.Store(ms.L1Hits)
	p.oh.cL1Misses.Store(ms.L1Misses)
	ns := p.net.Stats()
	p.oh.cNetTransfers.Store(ns.Transfers)
	p.oh.cNetHops.Store(ns.Hops)
}

// observeSample runs the cycle-sampled probes: issue-queue occupancy,
// interconnect link utilization and L1 bank-port backlog over the window
// since the previous sample. Called from step() only while an observer with
// a sample period is attached.
func (p *Processor) observeSample() {
	o := p.obs
	period := o.SamplePeriod
	from := p.cycle - period
	iqOcc := float64(p.iqOcc)
	linkUtil := p.net.Utilization(from, p.cycle)
	bankQ := p.memsys.BankBacklog(from, p.cycle)
	ipc := 0.0
	if p.cycle > 0 {
		ipc = float64(p.committed) / float64(p.cycle)
	}

	if o.Registry != nil {
		p.oh.gIQOcc.Set(iqOcc)
		p.oh.gLinkUtil.Set(linkUtil)
		p.oh.gBankQ.Set(bankQ)
		p.oh.gActive.Set(float64(p.active))
		p.oh.gIPC.Set(ipc)
		p.oh.hIQOcc.Observe(iqOcc)
		p.oh.hLinkUtil.Observe(linkUtil)
		p.syncObsCounters()
	}
	o.Emit(&obs.Event{ //simlint:alloc observer-gated: sampled emission on an instrumented run, never on the bare hot path
		Cycle:     p.cycle,
		Kind:      obs.KindSample,
		IQOcc:     iqOcc,
		LinkUtil:  linkUtil,
		BankQueue: bankQ,
		Active:    p.active,
	})
	o.Series.Append(obs.SeriesRow{
		Cycle:        p.cycle,
		Instructions: p.committed,
		Active:       p.active,
		IPC:          ipc,
		IQOcc:        iqOcc,
		LinkUtil:     linkUtil,
		BankQueue:    bankQ,
	})
	p.nextSample = p.cycle + period
}

// observeRedirect emits a front-end redirect event for a committed
// mispredicted control transfer.
func (p *Processor) observeRedirect(now, seq, pc uint64) {
	p.obs.Emit(&obs.Event{ //simlint:alloc observer-gated: redirect emission on an instrumented run, never on the bare hot path
		Cycle: now,
		Kind:  obs.KindRedirect,
		Seq:   seq,
		PC:    pc,
	})
}

// observeReconfig emits an applied reconfiguration. For decentralized
// reconfigurations, writebacks and drainCycles describe the flush.
func (p *Processor) observeReconfig(oldActive, newActive int, writebacks, drainCycles uint64) {
	p.obs.Emit(&obs.Event{ //simlint:alloc observer-gated: reconfig emission on an instrumented run, never on the bare hot path
		Cycle:       p.cycle,
		Kind:        obs.KindReconfig,
		Policy:      p.policy,
		OldActive:   oldActive,
		NewActive:   newActive,
		Writebacks:  writebacks,
		DrainCycles: drainCycles,
	})
}
