// Package stats provides the program-phase statistics machinery behind the
// paper's Table 4: per-interval metric traces, coarsening to longer interval
// lengths, and the instability-factor analysis that determines each
// program's minimum acceptable interval length.
package stats

import (
	"fmt"
	"math"

	"clustersim/internal/pipeline"
)

// Interval holds the metrics of one measurement interval: the three
// quantities the paper uses to define a phase (IPC, branch frequency,
// memory-reference frequency) plus the distant-ILP count.
type Interval struct {
	Instructions uint64
	Cycles       uint64
	Branches     uint64
	Memrefs      uint64
	Distant      uint64
}

// IPC returns the interval's instructions per cycle.
func (iv Interval) IPC() float64 {
	if iv.Cycles == 0 {
		return 0
	}
	return float64(iv.Instructions) / float64(iv.Cycles)
}

// Recorder is a pipeline.Controller that never reconfigures; it records a
// metric trace at a base interval granularity for offline phase analysis
// (the methodology of §4.1: "we ran each of the programs ... to generate a
// trace of various statistics at regular 10K instruction intervals").
type Recorder struct {
	// Base is the base interval length in instructions (default 10K).
	Base uint64
	// Clusters pins the active cluster count while recording (0 keeps
	// the machine's configured count).
	Clusters int

	intervals  []Interval
	cur        Interval
	startCycle uint64
	haveStart  bool
}

// NewRecorder returns a Recorder with the given base interval length.
func NewRecorder(base uint64) *Recorder {
	if base == 0 {
		base = 10_000
	}
	return &Recorder{Base: base}
}

// Name implements pipeline.Controller.
func (r *Recorder) Name() string { return fmt.Sprintf("recorder-%d", r.Base) }

// Reset implements pipeline.Controller.
func (r *Recorder) Reset(totalClusters int) {
	r.intervals = r.intervals[:0]
	r.cur = Interval{}
	r.haveStart = false
}

// OnCommit implements pipeline.Controller.
func (r *Recorder) OnCommit(ev pipeline.CommitEvent) int {
	if !r.haveStart {
		r.startCycle = ev.Cycle
		r.haveStart = true
	}
	r.cur.Instructions++
	if ev.IsBranch || ev.IsCall || ev.IsReturn {
		r.cur.Branches++
	}
	if ev.IsMem {
		r.cur.Memrefs++
	}
	if ev.Distant {
		r.cur.Distant++
	}
	if r.cur.Instructions == r.Base {
		r.cur.Cycles = ev.Cycle - r.startCycle
		r.intervals = append(r.intervals, r.cur)
		r.cur = Interval{}
		r.haveStart = false
	}
	return r.Clusters
}

// Intervals returns the recorded trace (whole intervals only).
func (r *Recorder) Intervals() []Interval { return r.intervals }

var _ pipeline.Controller = (*Recorder)(nil)

// Aggregate coarsens a trace by combining k consecutive intervals into one.
// Trailing partial groups are dropped.
func Aggregate(trace []Interval, k int) []Interval {
	if k <= 1 {
		out := make([]Interval, len(trace))
		copy(out, trace)
		return out
	}
	out := make([]Interval, 0, len(trace)/k)
	for i := 0; i+k <= len(trace); i += k {
		var agg Interval
		for _, iv := range trace[i : i+k] {
			agg.Instructions += iv.Instructions
			agg.Cycles += iv.Cycles
			agg.Branches += iv.Branches
			agg.Memrefs += iv.Memrefs
			agg.Distant += iv.Distant
		}
		out = append(out, agg)
	}
	return out
}

// Thresholds mirror the significance tests of §4.1/Figure 4.
type Thresholds struct {
	// IPCDelta is the relative IPC difference treated as a phase change.
	IPCDelta float64
	// MetricDelta is the branch/memref-count difference treated as a
	// phase change, as a fraction of the interval's instructions.
	MetricDelta float64
}

// DefaultThresholds matches the controllers' defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{IPCDelta: 0.25, MetricDelta: 0.01}
}

// Instability computes the paper's §4.1 instability factor for a trace: the
// percentage of intervals that are "unstable". The first interval of each
// phase is the reference; an ensuing interval is stable if all three
// metrics stay within thresholds, and otherwise it is unstable and opens a
// new phase.
func Instability(trace []Interval, th Thresholds) float64 {
	if len(trace) < 2 {
		return 0
	}
	ref := trace[0]
	unstable := 0
	for _, iv := range trace[1:] {
		if differs(iv, ref, th) {
			unstable++
			ref = iv
		}
	}
	return 100 * float64(unstable) / float64(len(trace)-1)
}

func differs(a, ref Interval, th Thresholds) bool {
	n := float64(a.Instructions)
	if math.Abs(float64(a.Branches)-float64(ref.Branches)) > th.MetricDelta*n {
		return true
	}
	if math.Abs(float64(a.Memrefs)-float64(ref.Memrefs)) > th.MetricDelta*n {
		return true
	}
	refIPC := ref.IPC()
	if refIPC == 0 {
		return a.IPC() != 0
	}
	return math.Abs(a.IPC()-refIPC)/refIPC > th.IPCDelta
}

// MinStableInterval returns the smallest interval length base*mult (trying
// the given multipliers in ascending order) whose instability factor is
// below maxInstability percent, together with that factor. If none
// qualifies it returns the largest tried.
func MinStableInterval(trace []Interval, base uint64, mults []int, maxInstability float64, th Thresholds) (length uint64, factor float64) {
	for _, m := range mults {
		agg := Aggregate(trace, m)
		if len(agg) < 2 {
			// Too coarse to judge; treat as stable at this length.
			return base * uint64(m), 0
		}
		f := Instability(agg, th)
		if f < maxInstability {
			return base * uint64(m), f
		}
		length, factor = base*uint64(m), f
	}
	return length, factor
}
