// Package pipeline implements the cycle-level timing model of the clustered
// out-of-order processor the paper studies (its Simplescalar-3.0 substrate,
// rebuilt from scratch).
//
// The machine follows §2 and Table 1: a centralized front-end (fetch across
// up to two basic blocks, 64-entry fetch queue, combining branch predictor,
// ≥12-cycle mispredict penalty) renames and *steers* up to 16 instructions
// per cycle into clusters. Each cluster holds separate integer and
// floating-point issue queues (15 entries each), physical registers (30
// each), and one functional unit of each type; bypassing inside a cluster is
// free, while values crossing clusters travel on the ring or grid
// interconnect, cycle per hop, with link contention. Loads and stores pass
// through a centralized LSQ next to the centralized cache, or through
// per-cluster LSQs with dummy-slot store broadcasts for the decentralized
// cache. A Controller (package core) observes committed instructions and
// reconfigures the number of active clusters at run time.
package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"clustersim/internal/mem"
	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
)

// MaxClusters is the largest cluster count the model supports (the paper's
// 16-cluster machine is the largest studied).
const MaxClusters = 16

// Topology selects the inter-cluster interconnect.
type Topology uint8

// Supported topologies.
const (
	// RingTopology is the paper's baseline: two unidirectional rings.
	RingTopology Topology = iota
	// GridTopology is the §6 sensitivity alternative: a 2-D mesh.
	GridTopology
)

// CacheModel selects the L1 data cache organization.
type CacheModel uint8

// Supported cache models.
const (
	// CentralizedCache co-locates one word-interleaved L1 and the LSQ
	// with cluster 0 (§2.1).
	CentralizedCache CacheModel = iota
	// DecentralizedCache gives every cluster an L1 bank and LSQ slice
	// (§2.2).
	DecentralizedCache
)

// SteeringPolicy selects the instruction steering heuristic (§2.1).
type SteeringPolicy uint8

// Supported steering policies.
const (
	// SteerOperandMajority steers to the cluster producing most source
	// operands, with a criticality hint and a load-imbalance override —
	// the paper's state-of-the-art heuristic.
	SteerOperandMajority SteeringPolicy = iota
	// SteerModN fills N instructions per cluster round-robin,
	// minimizing load imbalance.
	SteerModN
	// SteerFirstFit fills a cluster before moving to its neighbour,
	// minimizing communication.
	SteerFirstFit
)

// Config describes one processor instance. DefaultConfig returns Table 1.
type Config struct {
	// Clusters is the total on-chip cluster count (2..MaxClusters, or 1
	// for the monolithic model).
	Clusters int
	// ActiveClusters is the initial number of clusters instructions may
	// be steered to; a Controller may change it at run time.
	ActiveClusters int

	// IQPerCluster is the per-cluster issue-queue size (integer and
	// floating-point each).
	IQPerCluster int
	// RegsPerCluster is the per-cluster physical register count (integer
	// and floating-point each).
	RegsPerCluster int
	// IntALU, IntMulDiv, FPALU, FPMulDiv are per-cluster functional-unit
	// counts. The integer ALUs also perform address generation and
	// branch resolution.
	IntALU, IntMulDiv, FPALU, FPMulDiv int
	// LSQPerCluster is the per-cluster load/store queue size (the
	// centralized model uses Clusters*LSQPerCluster total).
	LSQPerCluster int

	FetchWidth    int
	FetchQueue    int
	DispatchWidth int
	CommitWidth   int
	ROB           int
	// FrontLatency is the front-end pipeline depth in cycles; it is the
	// floor of the branch-misprediction penalty (Table 1's "at least 12
	// cycles").
	FrontLatency int

	// Topology and HopLatency describe the interconnect.
	Topology   Topology
	HopLatency int

	// Cache selects the L1 organization; CacheConfig (optional)
	// overrides the Table 2 defaults.
	Cache       CacheModel
	CacheConfig *mem.Config

	// Steering selects the steering heuristic and its parameters.
	Steering SteeringPolicy
	// ImbalanceThreshold is the issue-queue occupancy spread beyond
	// which the operand-majority heuristic steers to the least-loaded
	// cluster (empirically tuned, per §2.1).
	ImbalanceThreshold int
	// ModN is the SteerModN group size.
	ModN int

	// DistantDepth is how far behind the ROB head (in instructions) an
	// instruction must issue to count as "distant" ILP (§4.3 uses 120,
	// the capacity of four clusters).
	DistantDepth int

	// Ablation switches for the paper's in-text idealizations.
	// FreeRegComm makes register forwarding between clusters free.
	FreeRegComm bool
	// FreeLoadComm makes cluster↔cache communication free (centralized).
	FreeLoadComm bool
	// PerfectBankPred steers memory operations with oracle bank
	// knowledge (decentralized).
	PerfectBankPred bool

	// LegacyStepper selects the seed per-cycle scan stepper (full IQ scan
	// every cycle, no stall fast-forward) instead of the event-driven
	// scheduler. The two steppers are timing-equivalent — byte-identical
	// Results on every workload (enforced by the StepperEquivalence oracle
	// and the fuzz differential) — so the knob exists purely as the
	// differential oracle and a perf baseline. The zero value selects the
	// event-driven stepper.
	LegacyStepper bool //simlint:nokey timing-equivalent steppers share snapshots and cache keys (StepperEquivalence oracle)

	// WatchdogCycles is how many cycles may elapse without a commit before
	// Run/RunCycles give up and return a *DeadlockError. Zero selects the
	// default (500_000). Raising it is only useful for configurations with
	// deliberately extreme memory latencies.
	WatchdogCycles uint64

	// Observer attaches the observability layer (metrics registry, trace
	// sinks and cycle-sampled probes) to the processor and, when the
	// Controller supports it, to the controller's decision reporting.
	// Nil disables all instrumentation at zero hot-path cost.
	Observer *obs.Observer //simlint:nokey observers never influence timing, and observed requests are uncacheable

	// Checker attaches a cycle-level invariant checker (see check.go and
	// package internal/check) that observes the machine state at the end
	// of every cycle. Nil disables checking at zero hot-path cost.
	// Checkers are stateful: every concurrent run needs its own instance.
	Checker Checker //simlint:nokey checkers never influence timing, and checked requests are uncacheable

	// Phases attaches a wall-clock phase timer that attributes the
	// simulator's own execution time to cycle-loop stages by sampling one
	// cycle in every timer period. The timer observes the simulator, never
	// the simulation — simulated results are bit-identical with or without
	// it — so it is excluded from Fingerprint and the runner's cache key,
	// and one timer may be shared across concurrent runs (its counters are
	// atomic). Nil disables attribution at zero hot-path cost.
	Phases *telemetry.PhaseTimer //simlint:nokey wall-clock attribution observes the simulator, never the simulation
}

// DefaultConfig returns the paper's Table 1 16-cluster machine with the
// centralized cache and ring interconnect.
func DefaultConfig() Config {
	return Config{
		Clusters:           16,
		ActiveClusters:     16,
		IQPerCluster:       15,
		RegsPerCluster:     30,
		IntALU:             1,
		IntMulDiv:          1,
		FPALU:              1,
		FPMulDiv:           1,
		LSQPerCluster:      15,
		FetchWidth:         8,
		FetchQueue:         64,
		DispatchWidth:      16,
		CommitWidth:        16,
		ROB:                480,
		FrontLatency:       12,
		Topology:           RingTopology,
		HopLatency:         1,
		Cache:              CentralizedCache,
		Steering:           SteerOperandMajority,
		ImbalanceThreshold: 8,
		ModN:               4,
		DistantDepth:       120,
	}
}

// MonolithicConfig returns the Table 3 baseline: a single cluster holding
// the 16-cluster machine's aggregate resources with no communication costs,
// used to characterize benchmarks ("a monolithic processor with as many
// resources as the 16-cluster system").
func MonolithicConfig() Config {
	c := DefaultConfig()
	c.Clusters = 1
	c.ActiveClusters = 1
	c.IQPerCluster = 15 * 16
	c.RegsPerCluster = 30 * 16
	c.IntALU, c.IntMulDiv, c.FPALU, c.FPMulDiv = 16, 16, 16, 16
	c.LSQPerCluster = 15 * 16
	c.FreeLoadComm = true
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Clusters < 1 || c.Clusters > MaxClusters {
		return fmt.Errorf("pipeline: Clusters %d out of range [1,%d]", c.Clusters, MaxClusters)
	}
	if c.ActiveClusters < 1 || c.ActiveClusters > c.Clusters {
		return fmt.Errorf("pipeline: ActiveClusters %d out of range [1,%d]", c.ActiveClusters, c.Clusters)
	}
	for _, v := range []struct {
		name string
		val  int
	}{
		{"IQPerCluster", c.IQPerCluster},
		{"RegsPerCluster", c.RegsPerCluster},
		{"IntALU", c.IntALU},
		{"IntMulDiv", c.IntMulDiv},
		{"FPALU", c.FPALU},
		{"FPMulDiv", c.FPMulDiv},
		{"LSQPerCluster", c.LSQPerCluster},
		{"FetchWidth", c.FetchWidth},
		{"FetchQueue", c.FetchQueue},
		{"DispatchWidth", c.DispatchWidth},
		{"CommitWidth", c.CommitWidth},
		{"ROB", c.ROB},
		{"FrontLatency", c.FrontLatency},
		{"HopLatency", c.HopLatency},
		{"DistantDepth", c.DistantDepth},
	} {
		if v.val <= 0 {
			return fmt.Errorf("pipeline: %s must be positive, got %d", v.name, v.val)
		}
	}
	if c.Cache == DecentralizedCache {
		// Addresses interleave over the banks by masking (mem.dist,
		// bpred.BankPredictor), which covers every bank only for powers
		// of two.
		for _, n := range []int{c.Clusters, c.ActiveClusters} {
			if n&(n-1) != 0 {
				return fmt.Errorf("pipeline: the decentralized cache needs power-of-two Clusters and ActiveClusters, have %d", n)
			}
		}
	}
	if c.Steering == SteerModN && c.ModN <= 0 {
		return fmt.Errorf("pipeline: ModN must be positive for SteerModN")
	}
	if c.Steering == SteerOperandMajority && c.ImbalanceThreshold <= 0 {
		return fmt.Errorf("pipeline: ImbalanceThreshold must be positive")
	}
	return nil
}

// Fingerprint returns a hash of every timing-relevant configuration field.
// Snapshots embed it so a checkpoint cannot be restored into a processor
// built from a different configuration (which would silently produce wrong
// results), and the runner's cache key folds it in so two different
// machines can never alias one cached Result.
//
// Every field is folded explicitly, one fixed-width or length-prefixed
// write per field in declaration order, which keeps the encoding injective
// and lets the cachekey analysis prove completeness: adding a Config field
// without a fold here (or deleting a fold) fails simlint. The excluded
// attachments carry //simlint:nokey justifications on their declarations.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	fold := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	foldBool := func(v bool) {
		if v {
			fold(1)
		} else {
			fold(0)
		}
	}
	// foldSub hashes an optional sub-config as a presence marker plus a
	// length-prefixed rendering, so nil, zero-valued and absent configs
	// stay distinguishable.
	foldSub := func(s string, present bool) {
		if !present {
			fold(0)
			return
		}
		fold(1)
		fold(uint64(len(s)))
		h.Write([]byte(s))
	}

	fold(uint64(c.Clusters))
	fold(uint64(c.ActiveClusters))
	fold(uint64(c.IQPerCluster))
	fold(uint64(c.RegsPerCluster))
	fold(uint64(c.IntALU))
	fold(uint64(c.IntMulDiv))
	fold(uint64(c.FPALU))
	fold(uint64(c.FPMulDiv))
	fold(uint64(c.LSQPerCluster))
	fold(uint64(c.FetchWidth))
	fold(uint64(c.FetchQueue))
	fold(uint64(c.DispatchWidth))
	fold(uint64(c.CommitWidth))
	fold(uint64(c.ROB))
	fold(uint64(c.FrontLatency))
	fold(uint64(c.Topology))
	fold(uint64(c.HopLatency))
	fold(uint64(c.Cache))
	if c.CacheConfig != nil {
		foldSub(fmt.Sprintf("%+v", *c.CacheConfig), true)
	} else {
		foldSub("", false)
	}
	fold(uint64(c.Steering))
	fold(uint64(c.ImbalanceThreshold))
	fold(uint64(c.ModN))
	fold(uint64(c.DistantDepth))
	foldBool(c.FreeRegComm)
	foldBool(c.FreeLoadComm)
	foldBool(c.PerfectBankPred)
	fold(c.WatchdogCycles)
	return h.Sum64()
}

// CommitEvent describes one committed instruction to a Controller.
type CommitEvent struct {
	// Cycle is the commit cycle.
	Cycle uint64
	// Seq is the dynamic instruction number.
	Seq uint64
	// PC is the instruction address.
	PC uint64
	// IsBranch, IsCall, IsReturn, IsMem classify the instruction.
	IsBranch, IsCall, IsReturn, IsMem bool
	// Distant reports the §4.3 distant-ILP bit (issued ≥DistantDepth
	// behind the ROB head).
	Distant bool
	// Mispredicted reports whether this control transfer redirected the
	// front-end.
	Mispredicted bool
}

// Controller decides how many clusters stay active. Implementations live in
// package core. A machine without one keeps Config.ActiveClusters: that is
// a static organization.
type Controller interface {
	// Name identifies the policy in results.
	Name() string
	// Reset prepares the controller for a run on a machine with the
	// given total cluster count.
	Reset(totalClusters int)
	// OnCommit observes one committed instruction and returns the
	// desired number of active clusters, or 0 for no change.
	OnCommit(ev CommitEvent) int
}

// PolicyName labels a run in results, trace events and snapshots: the
// controller's Name, or "static-N" for a machine with no controller and N
// active clusters.
func PolicyName(ctrl Controller, activeClusters int) string {
	if ctrl != nil {
		return ctrl.Name()
	}
	return fmt.Sprintf("static-%d", activeClusters)
}

// ObserverAware is optionally implemented by Controllers that report their
// reconfiguration decisions (with trigger reasons and measurements) to an
// observability layer. New attaches Config.Observer after Reset.
type ObserverAware interface {
	AttachObserver(*obs.Observer)
}
