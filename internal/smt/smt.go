// Package smt implements the paper's stated future-work direction (§1, §8):
// improving multi-threaded throughput "by avoiding cross-thread
// interference by dynamically dedicating a set of clusters to each thread."
//
// Each thread runs on its own dedicated cluster partition of the chip; the
// partitions are disjoint, so threads interfere neither in issue queues nor
// on the interconnect — exactly the isolation the paper argues dedication
// buys. Partition sizes can be fixed or retuned at run time by a
// PartitionPolicy that observes per-thread statistics (the same distant-ILP
// metric the single-thread controllers use): a thread in a distant-ILP
// phase bids for more clusters, a serial thread cedes them.
//
// Modelling note: each partition is simulated as an independent machine
// restricted to its allotment (every thread sees its own front end and its
// partition's slice of the cache); shared-structure contention between
// partitions is deliberately absent, matching the paper's dedication
// argument. Within a thread, all of the single-thread machinery (steering,
// LSQ, interconnect contention, reconfiguration draining) is live.
package smt

import (
	"fmt"

	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

// Thread names one hardware context's program.
type Thread struct {
	// Bench is the benchmark name (see workload.Benchmarks).
	Bench string
	// Seed seeds the thread's instruction stream.
	Seed uint64
	// Gen, when non-nil, supplies the thread's instruction stream
	// directly (spec-compiled or trace-replayed workloads); Bench and
	// Seed then only label the thread. Generators are stateful: every
	// thread needs its own instance.
	Gen workload.Generator
}

// ThreadStats summarizes one thread's most recent scheduling epoch for the
// partitioning policy.
type ThreadStats struct {
	// Clusters is the thread's current allotment.
	Clusters int
	// IPC is the epoch's instructions per cycle.
	IPC float64
	// DistantFrac is the fraction of the epoch's committed instructions
	// that issued distant (≥120 behind the ROB head) — the demand signal.
	DistantFrac float64
}

// PartitionPolicy decides cluster allotments.
type PartitionPolicy interface {
	// Name identifies the policy.
	Name() string
	// Partition returns the new allotment per thread; the sum must not
	// exceed total and every entry must be ≥1. It is called before the
	// first epoch (with zero-valued stats) and after every epoch.
	Partition(stats []ThreadStats, total int) []int
}

// EqualPartition divides the chip evenly.
type EqualPartition struct{}

// Name implements PartitionPolicy.
func (EqualPartition) Name() string { return "equal" }

// Partition implements PartitionPolicy.
func (EqualPartition) Partition(stats []ThreadStats, total int) []int {
	n := len(stats)
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// FixedPartition pins explicit allotments.
type FixedPartition struct {
	// Split is the per-thread allotment.
	Split []int
}

// Name implements PartitionPolicy.
func (f FixedPartition) Name() string { return fmt.Sprintf("fixed%v", f.Split) }

// Partition implements PartitionPolicy.
func (f FixedPartition) Partition(stats []ThreadStats, total int) []int {
	out := make([]int, len(f.Split))
	copy(out, f.Split)
	return out
}

// DistantILPPartition reallocates clusters in proportion to each thread's
// capacity to convert them into throughput: the product of its measured
// distant-ILP fraction (window parallelism, the §4.3 signal) and its IPC
// (the rate at which that parallelism retires). Distant fraction alone is
// misleading across threads — a slow thread's window is always deep simply
// because its head moves slowly. Threads never drop below Min clusters.
type DistantILPPartition struct {
	// Min is the floor per thread (default 2).
	Min int
}

// Name implements PartitionPolicy.
func (DistantILPPartition) Name() string { return "distant-ilp" }

// Partition implements PartitionPolicy.
func (d DistantILPPartition) Partition(stats []ThreadStats, total int) []int {
	min := d.Min
	if min <= 0 {
		min = 2
	}
	n := len(stats)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	if min*n > total {
		min = total / n
		if min < 1 {
			min = 1
		}
	}
	// Floor allotment, then distribute the remainder by demand. The raw
	// distant fractions sit in a compressed range (every thread's window
	// is deep in absolute terms), so the signal is sharpened, then
	// weighted by the thread's achieved IPC: clusters flow to the thread
	// that both has window parallelism and retires it quickly.
	sharpen := func(s ThreadStats) float64 {
		f := s.DistantFrac
		return f * f * f * f * (s.IPC + 0.01)
	}
	remaining := total - min*n
	var demand float64
	for _, s := range stats {
		demand += sharpen(s)
	}
	for i := range out {
		out[i] = min
	}
	if demand <= 0 {
		// No signal yet (first epoch): spread evenly.
		for i := 0; remaining > 0; i = (i + 1) % n {
			out[i]++
			remaining--
		}
		return out
	}
	// Largest-remainder apportionment of the spare clusters.
	type share struct {
		idx  int
		frac float64
	}
	shares := make([]share, n)
	assigned := 0
	for i, s := range stats {
		exact := float64(remaining) * sharpen(s) / demand
		whole := int(exact)
		out[i] += whole
		assigned += whole
		shares[i] = share{idx: i, frac: exact - float64(whole)}
	}
	for left := remaining - assigned; left > 0; left-- {
		best := 0
		for i := 1; i < n; i++ {
			if shares[i].frac > shares[best].frac {
				best = i
			}
		}
		out[shares[best].idx]++
		shares[best].frac = -1
	}
	return out
}

// System co-schedules threads on one chip under a partitioning policy.
type System struct {
	total  int
	policy PartitionPolicy
	procs  []*pipeline.Processor
	ctrls  []*allotment

	lastInstr   []uint64
	lastDistant []uint64
	lastCycle   []uint64

	report Report
}

// allotment is a pipeline.Controller pinning a thread to its partition.
// Between repartitions it keeps requesting the machine's current count,
// which the pipeline treats as a cycle-for-cycle no-op.
type allotment struct{ n int }

func (a *allotment) Name() string                         { return "smt-allotment" }
func (a *allotment) Reset(int)                            {}
func (a *allotment) OnCommit(ev pipeline.CommitEvent) int { return a.n }

// Report accumulates a co-schedule's outcome.
type Report struct {
	// Epochs is the number of completed scheduling epochs.
	Epochs uint64
	// Cycles is the simulated time.
	Cycles uint64
	// Instructions is the per-thread committed total.
	Instructions []uint64
	// ThreadIPC is the per-thread overall IPC.
	ThreadIPC []float64
	// Partitions counts, per thread, the cluster-cycles allotted.
	Partitions []uint64
	// Repartitions counts allotment changes.
	Repartitions uint64
}

// Throughput returns total committed instructions per cycle across threads.
func (r Report) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var sum uint64
	for _, n := range r.Instructions {
		sum += n
	}
	return float64(sum) / float64(r.Cycles)
}

// AvgClusters returns thread i's average allotment.
func (r Report) AvgClusters(i int) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Partitions[i]) / float64(r.Cycles)
}

// New builds a co-scheduled system over total clusters. cfg supplies the
// per-partition machine parameters (cluster count and active count are
// overridden by the policy).
func New(cfg pipeline.Config, threads []Thread, total int, policy PartitionPolicy) (*System, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("smt: no threads")
	}
	if total < len(threads) {
		return nil, fmt.Errorf("smt: %d clusters cannot host %d threads", total, len(threads))
	}
	s := &System{total: total, policy: policy}
	init := policy.Partition(make([]ThreadStats, len(threads)), total)
	if err := validSplit(init, len(threads), total); err != nil {
		return nil, err
	}
	for i, th := range threads {
		gen := th.Gen
		if gen == nil {
			var err error
			if gen, err = workload.New(th.Bench, th.Seed); err != nil {
				return nil, err
			}
		}
		c := cfg
		c.Clusters = total
		c.ActiveClusters = init[i]
		ctrl := &allotment{n: init[i]}
		p, err := pipeline.New(c, gen, ctrl)
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, p)
		s.ctrls = append(s.ctrls, ctrl)
	}
	n := len(threads)
	s.lastInstr = make([]uint64, n)
	s.lastDistant = make([]uint64, n)
	s.lastCycle = make([]uint64, n)
	s.report.Instructions = make([]uint64, n)
	s.report.ThreadIPC = make([]float64, n)
	s.report.Partitions = make([]uint64, n)
	return s, nil
}

func validSplit(split []int, n, total int) error {
	if len(split) != n {
		return fmt.Errorf("smt: policy returned %d allotments for %d threads", len(split), n)
	}
	sum := 0
	for _, v := range split {
		if v < 1 {
			return fmt.Errorf("smt: allotment %d below 1", v)
		}
		sum += v
	}
	if sum > total {
		return fmt.Errorf("smt: allotments sum to %d > %d clusters", sum, total)
	}
	return nil
}

// Run co-simulates for the given number of epochs of epochCycles each,
// repartitioning between epochs, and returns the accumulated report.
func (s *System) Run(epochs int, epochCycles uint64) (Report, error) {
	for e := 0; e < epochs; e++ {
		stats := make([]ThreadStats, len(s.procs))
		for i, p := range s.procs {
			r, err := p.RunCycles(epochCycles)
			if err != nil {
				return s.report, fmt.Errorf("smt: thread %d: %w", i, err)
			}
			dInstr := r.Instructions - s.lastInstr[i]
			dDist := r.DistantCommitted - s.lastDistant[i]
			dCyc := r.Cycles - s.lastCycle[i]
			s.lastInstr[i] = r.Instructions
			s.lastDistant[i] = r.DistantCommitted
			s.lastCycle[i] = r.Cycles
			st := ThreadStats{Clusters: s.ctrls[i].n}
			if dCyc > 0 {
				st.IPC = float64(dInstr) / float64(dCyc)
			}
			if dInstr > 0 {
				st.DistantFrac = float64(dDist) / float64(dInstr)
			}
			stats[i] = st
			s.report.Partitions[i] += uint64(s.ctrls[i].n) * epochCycles
		}
		split := s.policy.Partition(stats, s.total)
		if err := validSplit(split, len(s.procs), s.total); err != nil {
			return s.report, err
		}
		for i, n := range split {
			if n != s.ctrls[i].n {
				s.ctrls[i].n = n
				s.report.Repartitions++
			}
		}
		s.report.Epochs++
		s.report.Cycles += epochCycles
	}
	for i, p := range s.procs {
		s.report.Instructions[i] = p.Committed()
		if p.Cycle() > 0 {
			s.report.ThreadIPC[i] = float64(p.Committed()) / float64(p.Cycle())
		}
	}
	return s.report, nil
}
