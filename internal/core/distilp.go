package core

import (
	"fmt"
	"math"

	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
)

// DistantILPConfig parameterizes the §4.3 no-exploration controller. Zero
// values select the paper's constants; json tags, in order, are spec keys.
type DistantILPConfig struct {
	// IPCDelta and MetricDelta mirror ExploreConfig's significance
	// tests for phase-change detection.
	IPCDelta    float64 `json:"ipc_delta,omitempty"`
	MetricDelta float64 `json:"metric_delta,omitempty"`
	// Interval is the fixed interval length in committed instructions
	// (paper explores 1K as the best trade-off).
	Interval uint64 `json:"interval,omitempty"`
	// Threshold is the distant-instruction count per interval above
	// which the full-width configuration is chosen. The paper uses 160
	// per 1K instructions; this model's in-order-commit window stays
	// deeper across mispredicts than the paper's substrate, so the
	// default fraction is recalibrated (DefaultDistantFrac) to separate
	// the same benchmark classes. Zero scales the default to Interval.
	Threshold uint64 `json:"distant_threshold,omitempty"`
	// Narrow and Wide are the two candidate configurations (paper: 4 and
	// 16 — "our earlier results indicate that these are the two most
	// meaningful configurations").
	Narrow int `json:"narrow,omitempty"`
	Wide   int `json:"wide,omitempty"`
}

func (c *DistantILPConfig) setDefaults(total int) {
	if c.Interval == 0 {
		c.Interval = DefaultDistantILPInterval
	}
	if c.Threshold == 0 {
		c.Threshold = uint64(float64(c.Interval) * DefaultDistantFrac)
	}
	if c.Wide == 0 {
		c.Wide = total
	}
	if c.Narrow == 0 {
		c.Narrow = 4
		if c.Narrow > total {
			c.Narrow = total
		}
	}
	if c.IPCDelta == 0 {
		c.IPCDelta = 0.25
	}
	if c.MetricDelta == 0 {
		c.MetricDelta = 0.01
	}
}

// DefaultDistantFrac is the fraction of committed instructions that must
// have issued ≥DistantDepth behind the ROB head for a phase to be classed
// as having distant ILP. The paper's constant is 0.16 on its substrate;
// recalibrated here (see DESIGN.md §6) because this model's window remains
// occupied across mispredicts, shifting all benchmarks' distant fractions
// upward while preserving their ordering.
const DefaultDistantFrac = 0.78

// DefaultDistantILPInterval is DistantILPConfig.Interval when zero: the
// paper's 1K-instruction interval.
const DefaultDistantILPInterval = 1_000

// DistantILP is the §4.3 interval-based controller without exploration: at
// each phase change it runs one interval at full width, measures the degree
// of distant ILP (instructions issued ≥120 behind the ROB head), and picks
// the narrow or wide configuration directly. Reaction is fast — one
// interval — at the cost of measurement noise.
type DistantILP struct {
	cfg   DistantILPConfig //simlint:nostate configuration, fixed at construction
	total int              //simlint:nostate configuration, fixed at construction

	meter     intervalMeter
	measuring bool

	haveReference bool
	refBranches   float64
	refMemrefs    float64
	refIPC        float64

	current int

	phaseChanges uint64
	decisions    uint64

	dobs decisionObserver //simlint:nostate decision observer; checkpointing is refused while one is attached
}

// AttachObserver implements pipeline.ObserverAware.
func (d *DistantILP) AttachObserver(o *obs.Observer) { d.dobs.attach(o) }

// NewDistantILP returns the §4.3 controller. Pass a zero config for the
// paper's constants.
func NewDistantILP(cfg DistantILPConfig) *DistantILP {
	return &DistantILP{cfg: cfg}
}

// Name implements pipeline.Controller.
func (d *DistantILP) Name() string {
	iv := d.cfg.Interval
	if iv == 0 {
		iv = DefaultDistantILPInterval
	}
	return fmt.Sprintf("interval-dilp-%d", iv)
}

// Reset implements pipeline.Controller.
func (d *DistantILP) Reset(totalClusters int) {
	cfg := d.cfg
	cfg.setDefaults(totalClusters)
	*d = DistantILP{cfg: cfg, total: totalClusters, measuring: true, current: cfg.Wide}
}

// PhaseChanges returns the number of detected phase changes.
func (d *DistantILP) PhaseChanges() uint64 { return d.phaseChanges }

// OnCommit implements pipeline.Controller.
func (d *DistantILP) OnCommit(ev pipeline.CommitEvent) int {
	d.meter.observe(ev)
	if d.meter.instrs < d.cfg.Interval {
		return d.current
	}
	ipc := d.meter.ipc(ev.Cycle)
	instrs := d.meter.instrs
	nbranches := d.meter.branches
	nmemrefs := d.meter.memrefs
	branches := float64(nbranches)
	memrefs := float64(nmemrefs)
	distant := d.meter.distant
	d.meter.reset(ev.Cycle)

	if d.dobs.enabled() {
		d.dobs.interval(&obs.Event{Cycle: ev.Cycle, Policy: d.Name(), IPC: ipc,
			DistantFrac: float64(distant) / float64(d.cfg.Interval),
			Interval:    d.cfg.Interval, OldActive: d.current, NewActive: d.current,
			Instrs: instrs, Branches: nbranches, Memrefs: nmemrefs})
	}

	if d.measuring {
		// Decision interval at full width: pick by distant ILP.
		old := d.current
		trigger := "distant-ilp-low"
		if distant >= d.cfg.Threshold {
			d.current = d.cfg.Wide
			trigger = "distant-ilp-high"
		} else {
			d.current = d.cfg.Narrow
		}
		d.decisions++
		d.refIPC = ipc
		d.refBranches = branches
		d.refMemrefs = memrefs
		d.haveReference = true
		d.measuring = false
		d.dobs.decision(&obs.Event{Cycle: ev.Cycle, Policy: d.Name(),
			Trigger: trigger, OldActive: old, NewActive: d.current, IPC: ipc,
			DistantFrac: float64(distant) / float64(d.cfg.Interval),
			Interval:    d.cfg.Interval,
			Instrs:      instrs, Branches: nbranches, Memrefs: nmemrefs})
		return d.current
	}

	metricDelta := d.cfg.MetricDelta * float64(d.cfg.Interval)
	memChanged := math.Abs(memrefs-d.refMemrefs) > metricDelta
	brChanged := math.Abs(branches-d.refBranches) > metricDelta
	ipcChanged := relDelta(ipc, d.refIPC) > d.cfg.IPCDelta
	if memChanged || brChanged || ipcChanged {
		// Phase change: return to full width and measure again.
		old := d.current
		d.phaseChanges++
		d.measuring = true
		d.haveReference = false
		d.current = d.cfg.Wide
		d.dobs.decision(&obs.Event{Cycle: ev.Cycle, Policy: d.Name(),
			Trigger: "phase-change", OldActive: old, NewActive: d.current,
			IPC: ipc, Interval: d.cfg.Interval,
			Instrs: instrs, Branches: nbranches, Memrefs: nmemrefs})
	}
	return d.current
}

var _ pipeline.Controller = (*DistantILP)(nil)
