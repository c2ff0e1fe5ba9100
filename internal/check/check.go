// Package check is the simulator's validation subsystem: cycle-level
// invariant checking, metamorphic/differential oracles, and fuzzed
// workloads.
//
// The paper's headline numbers (interval-based ≈ +11%, fine-grained ≈ +15%
// over the best static configuration) are IPC ratios between runs of the
// same machine at different cluster counts, so they are only meaningful if
// the simulator's cycle accounting is internally consistent across every
// configuration the controllers explore. This package cross-checks that in
// three ways:
//
//   - Invariants implements pipeline.Checker and validates structural
//     invariants of the machine at the end of every simulated cycle: the
//     in-flight window never exceeds the ROB, physical-register and
//     issue-queue occupancy stay within per-cluster capacity (catching
//     scoreboard leaks and double-frees), LSQ occupancy respects the cache
//     model, interconnect link-transfer conservation holds, the memory
//     hierarchy's accounting identities balance, and the distant-ILP
//     counters never exceed the instructions that could have produced them.
//
//   - oracle_test.go holds the metamorphic and differential oracles, which
//     the package's tests run directly and through the internal/runner
//     pool: seed determinism, cluster-count monotonicity of the realized
//     window, interval-length invariance of recorded phase traces,
//     checkpoint-resume and stepper equivalence, and run-chunking
//     invariance. Only tests run them, so they live in a test file.
//
//   - fuzz_test.go fuzzes machine configurations and workload-generator
//     parameters against the invariant checker, with the interesting inputs
//     pinned as a seed corpus so every past crasher stays a regression test.
//
// A checker is attached via pipeline.Config.Checker and is designed to be
// perf-neutral when absent: the pipeline pays one pointer test per cycle and
// a checked cycle allocates nothing unless a violation is recorded.
package check

import (
	"fmt"
	"strings"

	"clustersim/internal/interconnect"
	"clustersim/internal/mem"
	"clustersim/internal/pipeline"
)

// maxViolations bounds the violations kept per run; later ones are counted
// but dropped (a broken machine violates invariants on nearly every cycle).
const maxViolations = 64

// Violation describes one failed invariant at one cycle.
type Violation struct {
	// Cycle is the simulation cycle the invariant failed on.
	Cycle uint64
	// Invariant names the failed check (e.g. "rob-window", "reg-conservation").
	Invariant string
	// Detail describes the observed inconsistency.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Invariant, v.Detail)
}

// Invariants is a pipeline.Checker validating the machine's cycle-level
// invariants. The zero value is not ready; use New or NewFailFast. One
// instance observes exactly one run: it tracks cumulative counters between
// cycles, so instances must not be shared across processors or reused.
type Invariants struct {
	failFast bool

	cycles     uint64
	lastCycle  uint64
	peakWindow uint64

	prevMem       mem.Stats
	prevNet       interconnect.Stats
	prevActiveSum uint64
	prevReconfigs uint64

	violations []Violation
	dropped    int
}

// New returns a checker that records violations (up to an internal cap) and
// reports them through Err after the run.
func New() *Invariants { return &Invariants{} }

// NewFailFast returns a checker that panics on the first violation. The
// runner converts run panics into per-run errors, so fail-fast checkers are
// the right choice inside sweeps and fuzz targets.
func NewFailFast() *Invariants { return &Invariants{failFast: true} }

// Name identifies the checker's validation mode. It never enters a
// run-cache key: checked runs are uncacheable.
func (k *Invariants) Name() string {
	if k.failFast {
		return "invariants-failfast"
	}
	return "invariants"
}

// CyclesChecked returns the number of cycles validated.
func (k *Invariants) CyclesChecked() uint64 { return k.cycles }

// PeakWindow returns the largest in-flight window (ROB occupancy) observed —
// the realized window size the cluster-count monotonicity oracle compares.
func (k *Invariants) PeakWindow() uint64 { return k.peakWindow }

// Violations returns the recorded violations (empty for a clean run).
func (k *Invariants) Violations() []Violation { return k.violations }

// Err returns nil for a clean run, or an error aggregating every recorded
// violation.
func (k *Invariants) Err() error {
	if len(k.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s)", len(k.violations)+k.dropped)
	if k.dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped)", k.dropped)
	}
	for _, v := range k.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("check: %s", b.String())
}

// fail records one violation (or panics under fail-fast).
func (k *Invariants) fail(cycle uint64, invariant, format string, args ...any) {
	v := Violation{Cycle: cycle, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	if k.failFast {
		//simlint:allow nopanic fail-fast mode is an explicit user request to halt at the first violation with a full stack
		panic("check: " + v.String())
	}
	if len(k.violations) >= maxViolations {
		k.dropped++
		return
	}
	k.violations = append(k.violations, v)
}

// CheckCycle implements pipeline.Checker.
func (k *Invariants) CheckCycle(v *pipeline.MachineView) {
	cfg := v.Config
	st := v.Stats
	k.cycles++

	// The pipeline advances one cycle per step and checks every step; a
	// skew here means the checker instance is being shared or reused.
	if v.Cycle != k.lastCycle+1 {
		k.fail(v.Cycle, "cycle-sequence", "expected cycle %d (one checker per run?)", k.lastCycle+1)
	}
	k.lastCycle = v.Cycle

	// In-flight window: head..tail..fetch are ordered, the ROB holds at
	// most cfg.ROB instructions, and commits advance the head exactly.
	if v.TailSeq < v.HeadSeq || v.FetchSeq < v.TailSeq {
		k.fail(v.Cycle, "seq-order", "head %d, tail %d, fetch %d out of order", v.HeadSeq, v.TailSeq, v.FetchSeq)
		return // derived window math below would wrap
	}
	window := v.TailSeq - v.HeadSeq
	if window > uint64(cfg.ROB) {
		k.fail(v.Cycle, "rob-window", "in-flight window %d exceeds ROB %d", window, cfg.ROB)
	}
	if window > k.peakWindow {
		k.peakWindow = window
	}
	if v.HeadSeq != v.Committed {
		k.fail(v.Cycle, "commit-head", "ROB head %d != committed %d", v.HeadSeq, v.Committed)
	}
	if st.Dispatched != v.TailSeq {
		k.fail(v.Cycle, "dispatch-tail", "dispatched %d != ROB tail %d", st.Dispatched, v.TailSeq)
	}
	if st.Fetched != v.FetchSeq {
		k.fail(v.Cycle, "fetch-seq", "fetched %d != fetch seq %d", st.Fetched, v.FetchSeq)
	}

	// Configuration bounds.
	if v.Active < 1 || v.Active > cfg.Clusters {
		k.fail(v.Cycle, "active-range", "active clusters %d outside [1,%d]", v.Active, cfg.Clusters)
	}
	if v.FetchQueueLen < 0 || v.FetchQueueLen > cfg.FetchQueue {
		k.fail(v.Cycle, "fetch-queue", "occupancy %d outside [0,%d]", v.FetchQueueLen, cfg.FetchQueue)
	}
	if da := st.ActiveSum - k.prevActiveSum; da != uint64(v.Active) {
		k.fail(v.Cycle, "active-sum", "ActiveSum advanced by %d with %d clusters active", da, v.Active)
	}
	k.prevActiveSum = st.ActiveSum
	if st.Reconfigs < k.prevReconfigs {
		k.fail(v.Cycle, "reconfig-count", "Reconfigs went backwards: %d -> %d", k.prevReconfigs, st.Reconfigs)
	}
	k.prevReconfigs = st.Reconfigs

	// Per-cluster occupancy: issue queues within capacity, physical
	// registers conserved (a negative count is a double-free, one beyond
	// capacity is a leak — either way a register was read after free or
	// freed while live), LSQ slots within the model's capacity.
	sumIQ, sumRegs := 0, 0
	for c := 0; c < cfg.Clusters; c++ {
		if q := v.IQInt[c]; q < 0 || q > cfg.IQPerCluster {
			k.fail(v.Cycle, "iq-capacity", "cluster %d int IQ %d outside [0,%d]", c, q, cfg.IQPerCluster)
		}
		if q := v.IQFP[c]; q < 0 || q > cfg.IQPerCluster {
			k.fail(v.Cycle, "iq-capacity", "cluster %d fp IQ %d outside [0,%d]", c, q, cfg.IQPerCluster)
		}
		if r := v.IntRegs[c]; r < 0 || r > cfg.RegsPerCluster {
			k.fail(v.Cycle, "reg-conservation", "cluster %d int regs %d outside [0,%d]", c, r, cfg.RegsPerCluster)
		}
		if r := v.FPRegs[c]; r < 0 || r > cfg.RegsPerCluster {
			k.fail(v.Cycle, "reg-conservation", "cluster %d fp regs %d outside [0,%d]", c, r, cfg.RegsPerCluster)
		}
		switch {
		case cfg.Cache == pipeline.CentralizedCache && v.LSQ[c] != 0:
			k.fail(v.Cycle, "lsq-capacity", "cluster %d LSQ %d under the centralized model", c, v.LSQ[c])
		case cfg.Cache == pipeline.DecentralizedCache && (v.LSQ[c] < 0 || v.LSQ[c] > cfg.LSQPerCluster):
			k.fail(v.Cycle, "lsq-capacity", "cluster %d LSQ %d outside [0,%d]", c, v.LSQ[c], cfg.LSQPerCluster)
		}
		sumIQ += v.IQInt[c] + v.IQFP[c]
		sumRegs += v.IntRegs[c] + v.FPRegs[c]
	}
	// Every queued-unissued instruction and every live destination
	// register belongs to exactly one in-flight instruction.
	if uint64(sumIQ) > window {
		k.fail(v.Cycle, "iq-conservation", "issue queues hold %d seqs but only %d in flight", sumIQ, window)
	}
	if uint64(sumRegs) > window {
		k.fail(v.Cycle, "reg-conservation", "%d registers live but only %d in flight", sumRegs, window)
	}
	switch cfg.Cache {
	case pipeline.CentralizedCache:
		if cap := cfg.Clusters * cfg.LSQPerCluster; v.LSQCentral < 0 || v.LSQCentral > cap {
			k.fail(v.Cycle, "lsq-capacity", "centralized LSQ %d outside [0,%d]", v.LSQCentral, cap)
		}
	case pipeline.DecentralizedCache:
		if v.LSQCentral != 0 {
			k.fail(v.Cycle, "lsq-capacity", "centralized LSQ %d under the decentralized model", v.LSQCentral)
		}
	}

	// Distant ILP: an instruction is counted distant at issue and again at
	// commit, so the counters are bounded by dispatches and commits.
	if st.DistantIssued > st.Dispatched {
		k.fail(v.Cycle, "distant-ilp", "distant issued %d exceeds %d dispatched", st.DistantIssued, st.Dispatched)
	}
	if st.DistantCommitted > st.DistantIssued {
		k.fail(v.Cycle, "distant-ilp", "distant committed %d exceeds distant issued %d", st.DistantCommitted, st.DistantIssued)
	}
	if st.DistantCommitted > v.Committed {
		k.fail(v.Cycle, "distant-ilp", "distant committed %d exceeds %d committed", st.DistantCommitted, v.Committed)
	}

	// Subsystem conservation.
	if err := v.NetStats.Conserved(k.prevNet, v.NetDiameter); err != nil {
		k.fail(v.Cycle, "link-conservation", "%v", err)
	}
	k.prevNet = v.NetStats
	if err := v.MemStats.Conserved(k.prevMem); err != nil {
		k.fail(v.Cycle, "mem-conservation", "%v", err)
	}
	k.prevMem = v.MemStats
}

var _ pipeline.Checker = (*Invariants)(nil)
