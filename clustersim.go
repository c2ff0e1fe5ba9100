// Package clustersim is a cycle-level simulator of dynamically tunable
// clustered processors, reproducing Balasubramonian, Dwarkadas and
// Albonesi, "Dynamically Managing the Communication-Parallelism Trade-off
// in Future Clustered Processors" (ISCA 2003).
//
// The simulated machine distributes issue queues, register files and
// functional units over up to 16 clusters connected by a ring or grid
// interconnect, with either a centralized or a decentralized (bank-per-
// cluster) L1 data cache. Run-time controllers tune how many clusters a
// program may dispatch to, trading inter-cluster communication against
// instruction-level parallelism:
//
//	gen, err := clustersim.NewWorkload("gzip", 1)
//	if err != nil { ... }
//	ctrl := clustersim.NewExplore(clustersim.ExploreConfig{})
//	p, err := clustersim.NewProcessor(clustersim.DefaultConfig(), gen, ctrl)
//	if err != nil { ... }
//	res, err := p.Run(1_000_000)
//	if err != nil { ... }
//	fmt.Println(res.IPC(), res.AvgActiveClusters())
//
// Nine synthetic benchmarks, defined by the spec files under specs/, stand
// in for the paper's SPEC2K/Mediabench programs (see Benchmarks and
// internal/workload for the substitution rationale), and package
// internal/experiments regenerates every table and figure of the paper's
// evaluation.
package clustersim

import (
	"fmt"
	"io"
	"time"

	"clustersim/internal/check"
	"clustersim/internal/core"
	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
	"clustersim/internal/smt"
	"clustersim/internal/spec"
	"clustersim/internal/stats"
	"clustersim/internal/telemetry"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// Core simulator types, aliased from the implementation packages so the
// public API is a single import.
type (
	// Config describes a processor instance (Table 1 defaults).
	Config = pipeline.Config
	// Result holds run statistics.
	Result = pipeline.Result
	// CommitEvent is what a Controller observes per committed
	// instruction.
	CommitEvent = pipeline.CommitEvent
	// Controller decides the active-cluster count at run time.
	Controller = pipeline.Controller
	// Processor is one simulated machine bound to a workload.
	Processor = pipeline.Processor
	// Generator produces a benchmark's instruction stream.
	Generator = workload.Generator
	// PaperData records a benchmark's published characteristics.
	PaperData = workload.PaperData
	// WorkloadSpec is a declarative workload document (phase profiles
	// and sampling distributions, or a multi-programmed mix); see
	// docs/WORKLOADS.md for the schema.
	WorkloadSpec = spec.Spec
	// SpecMixThread is one compiled thread of a mix spec.
	SpecMixThread = spec.MixThread
	// PackedTrace is a recorded stream in compact in-memory form (~4 bytes
	// per instruction), the form replay runs from.
	PackedTrace = trace.Packed
	// TraceMeta identifies a trace's source (generator name, source
	// kind/id, spec fingerprint, seed).
	TraceMeta = trace.Meta
	// TraceHeader is a trace file's identity block (metadata, length,
	// content fingerprint).
	TraceHeader = trace.Header
	// TraceExhaustedError is the typed panic a replayed trace raises when a
	// run fetches past its recording; the sweep runner recovers it into a
	// per-run failure, direct drivers recover it themselves.
	TraceExhaustedError = trace.ExhaustedError

	// Checker observes the machine's architectural state at the end of
	// every simulated cycle (set Config.Checker); a nil Checker costs one
	// pointer test per cycle.
	Checker = pipeline.Checker
	// MachineView is the per-cycle state snapshot handed to a Checker.
	MachineView = pipeline.MachineView
	// InvariantChecker validates cycle-level structural invariants
	// (window/ROB bounds, register and issue-queue conservation, memory
	// and interconnect accounting identities). One instance per run.
	InvariantChecker = check.Invariants

	// ExploreConfig parameterizes the Figure 4 interval-based controller.
	ExploreConfig = core.ExploreConfig
	// DistantILPConfig parameterizes the §4.3 no-exploration controller.
	DistantILPConfig = core.DistantILPConfig
	// FineGrainConfig parameterizes the §4.4 fine-grained controller.
	FineGrainConfig = core.FineGrainConfig

	// Interval is one entry of a phase-analysis metric trace.
	Interval = stats.Interval
	// Recorder collects metric traces for phase analysis (Table 4).
	Recorder = stats.Recorder

	// Thread names one hardware context for multi-threaded studies.
	Thread = smt.Thread
	// PartitionPolicy decides per-thread cluster allotments.
	PartitionPolicy = smt.PartitionPolicy
	// SMTSystem co-schedules threads on dedicated cluster partitions
	// (the paper's §1/§8 proposal).
	SMTSystem = smt.System
	// EqualPartition, FixedPartition and DistantILPPartition are the
	// provided partitioning policies.
	EqualPartition      = smt.EqualPartition
	FixedPartition      = smt.FixedPartition
	DistantILPPartition = smt.DistantILPPartition

	// Observer bundles the observability facilities a processor writes to
	// (set Config.Observer); a nil Observer disables instrumentation at
	// zero hot-path cost.
	Observer = obs.Observer
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// Tracer consumes structured trace events.
	Tracer = obs.Tracer
	// TraceEvent is one structured trace record (controller decisions,
	// interval boundaries, redirects, reconfiguration drains, samples).
	TraceEvent = obs.Event
	// RingSink, JSONLSink and ChromeSink are the provided trace sinks.
	RingSink   = obs.RingSink
	JSONLSink  = obs.JSONLSink
	ChromeSink = obs.ChromeSink
	// TimeSeries accumulates probe samples for CSV export.
	TimeSeries = obs.TimeSeries

	// PhaseTimer attributes the simulator's own wall-clock time to
	// cycle-loop phases by sampling (set Config.Phases); a nil timer costs
	// one pointer test per cycle. One timer may be shared across
	// concurrent runs.
	PhaseTimer = telemetry.PhaseTimer
)

// Topology and cache-model selectors.
const (
	// RingTopology is the baseline pair of unidirectional rings.
	RingTopology = pipeline.RingTopology
	// GridTopology is the §6 two-dimensional mesh.
	GridTopology = pipeline.GridTopology
	// CentralizedCache co-locates the L1 and LSQ with cluster 0 (§2.1).
	CentralizedCache = pipeline.CentralizedCache
	// DecentralizedCache gives each cluster an L1 bank and LSQ (§2.2).
	DecentralizedCache = pipeline.DecentralizedCache
	// SteerOperandMajority, SteerModN and SteerFirstFit select the §2.1
	// steering heuristics.
	SteerOperandMajority = pipeline.SteerOperandMajority
	SteerModN            = pipeline.SteerModN
	SteerFirstFit        = pipeline.SteerFirstFit
)

// DefaultConfig returns the paper's Table 1 16-cluster machine with the
// centralized cache and ring interconnect.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// MonolithicConfig returns the Table 3 baseline: one cluster holding the
// 16-cluster machine's aggregate resources with no communication costs.
func MonolithicConfig() Config { return pipeline.MonolithicConfig() }

// Benchmarks lists the available synthetic benchmarks (the paper's nine
// programs).
func Benchmarks() []string { return workload.Benchmarks() }

// Paper returns the published characteristics the named benchmark targets.
func Paper(name string) (PaperData, bool) { return workload.Paper(name) }

// NewWorkload returns the named benchmark's deterministic generator, or an
// error for an unknown name (use Benchmarks for the valid set).
func NewWorkload(name string, seed uint64) (Generator, error) {
	return workload.New(name, seed)
}

// NewInvariantChecker returns a cycle-level invariant checker that records
// violations for inspection after the run (Err, Violations). Attach it via
// Config.Checker; one instance validates exactly one run.
func NewInvariantChecker() *InvariantChecker { return check.New() }

// NewFailFastInvariantChecker returns an invariant checker that panics on
// the first violation, stopping the simulation at the faulty cycle.
func NewFailFastInvariantChecker() *InvariantChecker { return check.NewFailFast() }

// NewProcessor builds a processor over gen, governed by ctrl (nil pins the
// configured ActiveClusters).
func NewProcessor(cfg Config, gen Generator, ctrl Controller) (*Processor, error) {
	return pipeline.New(cfg, gen, ctrl)
}

// NewExplore returns the paper's Figure 4 interval-based controller with
// exploration and a variable interval length. A zero config selects the
// paper's constants.
func NewExplore(cfg ExploreConfig) Controller { return core.NewExplore(cfg) }

// NewDistantILP returns the §4.3 interval-based controller without
// exploration. A zero config selects the paper's constants.
func NewDistantILP(cfg DistantILPConfig) Controller { return core.NewDistantILP(cfg) }

// NewFineGrain returns the §4.4 fine-grained (basic-block boundary)
// controller. A zero config selects the paper's constants; set
// CallReturnOnly for the subroutine-boundary variant.
func NewFineGrain(cfg FineGrainConfig) Controller { return core.NewFineGrain(cfg) }

// NewRecorder returns a non-reconfiguring controller that records a metric
// trace at the given base interval length for phase analysis.
func NewRecorder(base uint64) *Recorder { return stats.NewRecorder(base) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewRingSink returns a trace sink keeping the most recent n events in
// memory.
func NewRingSink(n int) *RingSink { return obs.NewRingSink(n) }

// NewJSONLSink returns a trace sink writing one JSON object per event to w
// (Close flushes, and closes w if it is an io.Closer).
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// NewChromeSink returns a trace sink writing the Chrome trace_event array
// format, loadable in chrome://tracing or ui.perfetto.dev.
func NewChromeSink(w io.Writer) *ChromeSink { return obs.NewChromeSink(w) }

// ServeMetrics exposes live registry snapshots over HTTP on addr
// (/metrics, /metrics.csv, /debug/vars). withPprof adds the Go profiling
// endpoints under /debug/pprof/, so a long-running simulation can be
// CPU/heap-profiled live. It returns once the listener is bound, reporting
// the bound address; the returned function shuts it down.
func ServeMetrics(addr string, r *MetricsRegistry, withPprof bool) (string, func() error, error) {
	return obs.Serve(addr, r, withPprof)
}

// NewPhaseTimer returns a wall-clock phase timer sampling one cycle in every
// period (rounded up to a power of two; 0 selects the default, 1 in 64).
// Attach it via Config.Phases.
func NewPhaseTimer(period uint64) *PhaseTimer { return telemetry.NewPhaseTimer(period) }

// StartRuntimeSampler periodically samples the Go runtime's own health
// metrics (heap, GC pauses, goroutines, scheduler latency) into the registry
// as "runtime.*" gauges until the returned stop function is called; interval
// <= 0 selects one second.
func StartRuntimeSampler(r *MetricsRegistry, interval time.Duration) (stop func()) {
	return telemetry.StartRuntimeSampler(r, interval)
}

// Instability computes the §4.1 instability factor (percent of unstable
// intervals) of a recorded trace using the default significance thresholds.
func Instability(trace []Interval) float64 {
	return stats.Instability(trace, stats.DefaultThresholds())
}

// NewSMT builds a multi-threaded co-schedule over total dedicated clusters.
func NewSMT(cfg Config, threads []Thread, total int, policy PartitionPolicy) (*SMTSystem, error) {
	return smt.New(cfg, threads, total, policy)
}

// Run is a convenience wrapper: it simulates n instructions of the named
// benchmark under ctrl (nil for a fixed configuration) and returns the
// statistics.
func Run(benchmark string, seed uint64, cfg Config, ctrl Controller, n uint64) (Result, error) {
	gen, err := workload.New(benchmark, seed)
	if err != nil {
		return Result{}, err
	}
	p, err := pipeline.New(cfg, gen, ctrl)
	if err != nil {
		return Result{}, fmt.Errorf("clustersim: %w", err)
	}
	return p.Run(n)
}

// Trace source kinds for TraceMeta.SourceKind.
const (
	TraceSourceBench = trace.SourceBench
	TraceSourceSpec  = trace.SourceSpec
)

// DefaultTraceHeadroom is the recommended margin of extra instructions to
// record beyond the window a replayed run will commit, covering the
// deepest fetch-ahead any policy reaches.
const DefaultTraceHeadroom = trace.DefaultHeadroom

// LoadWorkloadSpec parses and validates the spec file at path.
func LoadWorkloadSpec(path string) (*WorkloadSpec, error) { return spec.LoadFile(path) }

// CompileWorkloadSpec compiles a single-program spec into a Generator;
// distribution-valued fields are sampled deterministically from seed.
func CompileWorkloadSpec(s *WorkloadSpec, seed uint64) (Generator, error) {
	return spec.Compile(s, seed)
}

// CompileWorkloadMix compiles a mix spec into per-thread generators for
// NewSMT.
func CompileWorkloadMix(s *WorkloadSpec, seed uint64) ([]SpecMixThread, error) {
	return spec.CompileMix(s, seed)
}

// RecordTraceFile drains n instructions from gen straight into a trace file
// at path, packing them as they are drawn, and returns the written header.
func RecordTraceFile(path string, gen Generator, n uint64, meta TraceMeta) (TraceHeader, error) {
	return trace.RecordFile(path, gen, n, meta)
}

// ReadPackedTraceFile loads and fingerprint-verifies the trace at path in
// packed form, ready to replay, without ever decoding it into a slice.
func ReadPackedTraceFile(path string) (*PackedTrace, error) { return trace.ReadPackedFile(path) }
