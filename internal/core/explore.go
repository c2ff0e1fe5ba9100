package core

import (
	"fmt"
	"math"

	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
)

// ExploreConfig parameterizes the Figure 4 algorithm. Zero values select
// the paper's constants; json tags, in order, are policy-spec keys.
type ExploreConfig struct {
	// InitialInterval is the starting interval length in committed
	// instructions (paper: 10K).
	InitialInterval uint64 `json:"initial_interval,omitempty"`
	// MaxInterval is THRESH3: when interval doubling passes this point,
	// the controller picks the most popular configuration and stops
	// reconfiguring (paper: 1 billion; scaled down for our shorter
	// windows).
	MaxInterval uint64 `json:"max_interval,omitempty"`
	// IPCDelta is the relative IPC change treated as significant. The
	// paper leaves this constant unspecified; 0.25 sits above this
	// model's memory-system noise (±15% at 10K intervals) and far below
	// the 2-3x swings real phase changes produce.
	IPCDelta float64 `json:"ipc_delta,omitempty"`
	// MetricDelta is the absolute branch/memref-count change treated as
	// significant, as a fraction of the interval length (paper:
	// interval_length/100).
	MetricDelta float64 `json:"metric_delta,omitempty"`
	// Thresh1 is the number of tolerated IPC variations before they
	// signal a phase change (paper: 5).
	Thresh1 float64 `json:"thresh1,omitempty"`
	// Thresh2 is the instability level that doubles the interval
	// (paper: 5).
	Thresh2 float64 `json:"thresh2,omitempty"`
	// Configs are the candidate cluster counts explored at each phase
	// change (paper: 2, 4, 8, 16).
	Configs []int `json:"configs,omitempty"`
	// WarmupIntervals is how many intervals each explored configuration
	// runs before the scoring interval. In-flight work dispatched under
	// the previous configuration drains through the first interval and
	// contaminates its IPC, so one warm-up interval (the default) is
	// discarded. Set negative for none (the paper's literal reading).
	WarmupIntervals int `json:"warmup_intervals,omitempty"`
	// MacroInterval is the macrophase inspection period in committed
	// instructions (Figure 4: "Inspect statistics every 100 billion
	// instructions; if (new macrophase) initialize all variables").
	// When the coarse branch/memref profile shifts between macro
	// periods, the whole algorithm — including a discontinued one —
	// restarts with the initial interval length. Zero disables the
	// hierarchy (it rarely triggers within scaled-down runs).
	MacroInterval uint64 `json:"macro_interval,omitempty"`
}

func (c *ExploreConfig) setDefaults(total int) {
	if c.InitialInterval == 0 {
		c.InitialInterval = 10_000
	}
	if c.MaxInterval == 0 {
		c.MaxInterval = 50_000_000
	}
	if c.IPCDelta == 0 {
		c.IPCDelta = 0.25
	}
	if c.MetricDelta == 0 {
		c.MetricDelta = 0.01
	}
	if c.Thresh1 == 0 {
		c.Thresh1 = 5
	}
	if c.Thresh2 == 0 {
		c.Thresh2 = 5
	}
	if len(c.Configs) == 0 {
		for _, n := range []int{2, 4, 8, 16} {
			if n <= total {
				c.Configs = append(c.Configs, n)
			}
		}
		if len(c.Configs) == 0 {
			c.Configs = []int{total}
		}
	}
	if c.WarmupIntervals == 0 {
		c.WarmupIntervals = 1
	}
	if c.WarmupIntervals < 0 {
		c.WarmupIntervals = 0
	}
}

// Explore is the §4.2 interval-based controller with exploration and a
// variable interval length (Figure 4).
type Explore struct {
	cfg ExploreConfig //simlint:nostate configuration, fixed at construction

	total          int //simlint:nostate configuration, fixed at construction
	intervalLength uint64

	meter intervalMeter

	haveReference bool
	refBranches   float64
	refMemrefs    float64
	refIPC        float64

	exploring    bool
	exploreIdx   int
	warmupLeft   int
	exploreIPC   []float64
	stable       bool
	reanchor     bool
	current      int
	ipcVariation float64
	instability  float64

	discontinued bool
	// popularity counts intervals spent at each configuration, used when
	// the algorithm discontinues itself.
	popularity map[int]uint64

	// Macrophase state: coarse-grained branch/memref profile of the
	// current and previous macro periods.
	macroInstrs       uint64
	macroBranches     uint64
	macroMemrefs      uint64
	prevMacroBranches float64
	prevMacroMemrefs  float64
	haveMacroRef      bool
	macrophases       uint64

	// Stats.
	phaseChanges   uint64
	explorations   uint64
	intervalGrowth int

	dobs decisionObserver //simlint:nostate decision observer; checkpointing is refused while one is attached
}

// AttachObserver implements pipeline.ObserverAware: decisions are reported
// with their trigger reasons and interval measurements.
func (e *Explore) AttachObserver(o *obs.Observer) { e.dobs.attach(o) }

// NewExplore returns the Figure 4 controller. Pass a zero ExploreConfig for
// the paper's constants.
func NewExplore(cfg ExploreConfig) *Explore {
	return &Explore{cfg: cfg}
}

// Name implements pipeline.Controller.
func (e *Explore) Name() string { return "interval-explore" }

// Reset implements pipeline.Controller.
func (e *Explore) Reset(totalClusters int) {
	cfg := e.cfg
	cfg.setDefaults(totalClusters)
	*e = Explore{
		cfg:            cfg,
		total:          totalClusters,
		intervalLength: cfg.InitialInterval,
		exploreIPC:     make([]float64, len(cfg.Configs)),
		popularity:     make(map[int]uint64),
	}
	e.startExploration()
}

// IntervalLength returns the current adapted interval length.
func (e *Explore) IntervalLength() uint64 { return e.intervalLength }

// PhaseChanges returns the number of detected phase changes.
func (e *Explore) PhaseChanges() uint64 { return e.phaseChanges }

// Explorations returns the number of exploration rounds performed.
func (e *Explore) Explorations() uint64 { return e.explorations }

// Discontinued reports whether the algorithm gave up reconfiguring (the
// THRESH3 path of Figure 4).
func (e *Explore) Discontinued() bool { return e.discontinued }

// Macrophases returns the number of detected macrophase changes.
func (e *Explore) Macrophases() uint64 { return e.macrophases }

func (e *Explore) startExploration() {
	e.exploring = true
	e.stable = false
	e.exploreIdx = 0
	e.warmupLeft = e.cfg.WarmupIntervals
	e.current = e.cfg.Configs[0]
	e.explorations++
}

// OnCommit implements pipeline.Controller.
func (e *Explore) OnCommit(ev pipeline.CommitEvent) int {
	if e.cfg.MacroInterval > 0 {
		e.observeMacro(ev)
	}
	if e.discontinued {
		return e.current
	}
	e.meter.observe(ev)
	if e.meter.instrs < e.intervalLength {
		return e.current
	}
	e.endInterval(ev.Cycle)
	return e.current
}

// observeMacro maintains the Figure 4 macrophase hierarchy: a coarse
// profile comparison that can restart even a discontinued algorithm.
func (e *Explore) observeMacro(ev pipeline.CommitEvent) {
	e.macroInstrs++
	if ev.IsBranch || ev.IsCall || ev.IsReturn {
		e.macroBranches++
	}
	if ev.IsMem {
		e.macroMemrefs++
	}
	if e.macroInstrs < e.cfg.MacroInterval {
		return
	}
	branches := float64(e.macroBranches)
	memrefs := float64(e.macroMemrefs)
	e.macroInstrs, e.macroBranches, e.macroMemrefs = 0, 0, 0
	if e.haveMacroRef {
		delta := e.cfg.MetricDelta * float64(e.cfg.MacroInterval)
		if math.Abs(branches-e.prevMacroBranches) > delta ||
			math.Abs(memrefs-e.prevMacroMemrefs) > delta {
			// New macrophase: reinitialize the algorithm, but carry the
			// cumulative stats counters through — zeroing them here made
			// PhaseChanges()/Explorations() (and anything derived from
			// them, like reconfig-churn rates) undercount on every run
			// crossing a macrophase boundary.
			e.macrophases++
			cur := e.current
			macro := e.macrophases
			cfg := e.cfg
			total := e.total
			dobs := e.dobs
			phases := e.phaseChanges
			explos := e.explorations
			growth := e.intervalGrowth
			*e = Explore{cfg: cfg, total: total,
				intervalLength: cfg.InitialInterval,
				meter:          intervalMeter{startCycle: ev.Cycle},
				exploreIPC:     make([]float64, len(cfg.Configs)),
				popularity:     make(map[int]uint64),
				macrophases:    macro,
				current:        cur,
				phaseChanges:   phases,
				explorations:   explos,
				intervalGrowth: growth,
				dobs:           dobs,
			}
			e.startExploration()
			e.dobs.decision(&obs.Event{Cycle: ev.Cycle, Policy: e.Name(),
				Trigger: "macrophase", OldActive: cur, NewActive: e.current,
				Interval: e.intervalLength})
			return
		}
	}
	e.prevMacroBranches = branches
	e.prevMacroMemrefs = memrefs
	e.haveMacroRef = true
}

// endInterval runs the Figure 4 decision logic at an interval boundary.
func (e *Explore) endInterval(now uint64) {
	ipc := e.meter.ipc(now)
	instrs := e.meter.instrs
	nbranches := e.meter.branches
	nmemrefs := e.meter.memrefs
	branches := float64(nbranches)
	memrefs := float64(nmemrefs)
	distantFrac := float64(e.meter.distant) / float64(instrs)
	e.meter.reset(now)
	e.popularity[e.current] += 1
	if e.dobs.enabled() {
		e.dobs.interval(&obs.Event{Cycle: now, Policy: e.Name(), IPC: ipc,
			DistantFrac: distantFrac, Interval: e.intervalLength,
			OldActive: e.current, NewActive: e.current,
			Instrs: instrs, Branches: nbranches, Memrefs: nmemrefs})
	}

	metricDelta := e.cfg.MetricDelta * float64(e.intervalLength)

	if e.haveReference {
		// The IPC measured while the winning configuration was still
		// being explored carries drain/warm-up transients from its
		// predecessor configuration; the first interval run purely
		// under the chosen configuration re-anchors the reference so
		// those transients are not misread as a phase change.
		if e.stable && e.reanchor {
			e.refIPC = ipc
			e.reanchor = false
		}
		memChanged := math.Abs(memrefs-e.refMemrefs) > metricDelta
		brChanged := math.Abs(branches-e.refBranches) > metricDelta
		ipcChanged := e.stable && relDelta(ipc, e.refIPC) > e.cfg.IPCDelta

		if memChanged || brChanged || (ipcChanged && e.ipcVariation > e.cfg.Thresh1) {
			// Phase change: restart exploration.
			e.phaseChanges++
			e.haveReference = false
			e.ipcVariation = 0
			e.instability += 2
			old := e.current
			if e.instability > e.cfg.Thresh2 {
				e.intervalLength *= 2
				e.intervalGrowth++
				e.instability = 0
				if e.intervalLength > e.cfg.MaxInterval {
					e.discontinue()
					e.dobs.decision(&obs.Event{Cycle: now, Policy: e.Name(),
						Trigger: "discontinued", OldActive: old, NewActive: e.current,
						IPC: ipc, Interval: e.intervalLength,
						Instrs: instrs, Branches: nbranches, Memrefs: nmemrefs})
					return
				}
			}
			e.startExploration()
			e.dobs.decision(&obs.Event{Cycle: now, Policy: e.Name(),
				Trigger: "phase-change", OldActive: old, NewActive: e.current,
				IPC: ipc, DistantFrac: distantFrac, Interval: e.intervalLength,
				Instrs: instrs, Branches: nbranches, Memrefs: nmemrefs})
			return
		}
		if ipcChanged {
			e.ipcVariation += 2
		} else {
			e.ipcVariation = math.Max(-2, e.ipcVariation-0.125)
			e.instability = math.Max(0, e.instability-0.125)
		}
	} else {
		// First interval of a new phase: record the micro-architecture-
		// independent reference metrics.
		e.haveReference = true
		e.refBranches = branches
		e.refMemrefs = memrefs
	}

	if e.exploring {
		if e.warmupLeft > 0 {
			// Discard the drain-contaminated warm-up interval.
			e.warmupLeft--
			return
		}
		e.exploreIPC[e.exploreIdx] = ipc
		e.exploreIdx++
		if e.exploreIdx < len(e.cfg.Configs) {
			// Only the first explored configuration needs a warm-up
			// interval: it inherits a full window of work dispatched
			// under the previous (usually wider) configuration. The
			// later steps widen the machine, whose small drain is
			// negligible against an interval.
			old := e.current
			e.current = e.cfg.Configs[e.exploreIdx]
			e.dobs.decision(&obs.Event{Cycle: now, Policy: e.Name(),
				Trigger: "explore-step", OldActive: old, NewActive: e.current,
				IPC: ipc, Interval: e.intervalLength,
				Instrs: instrs, Branches: nbranches, Memrefs: nmemrefs})
			return
		}
		// Exploration complete: adopt the best configuration and use
		// its IPC as the reference.
		best := 0
		for i, v := range e.exploreIPC {
			if v > e.exploreIPC[best] {
				best = i
			}
		}
		old := e.current
		e.current = e.cfg.Configs[best]
		e.refIPC = e.exploreIPC[best]
		e.exploring = false
		e.stable = true
		e.reanchor = true
		e.dobs.decision(&obs.Event{Cycle: now, Policy: e.Name(),
			Trigger: "explore-adopt", OldActive: old, NewActive: e.current,
			IPC: e.refIPC, Interval: e.intervalLength,
			Instrs: instrs, Branches: nbranches, Memrefs: nmemrefs})
	}
}

// discontinue locks in the most popular configuration (Figure 4's THRESH3
// escape hatch).
func (e *Explore) discontinue() {
	best, bestN := e.total, uint64(0)
	//simlint:allow determinism arg-max reduction with a total tie-break (count, then cluster number) is iteration-order independent
	for cfgN, n := range e.popularity {
		if n > bestN || (n == bestN && cfgN > best) {
			best, bestN = cfgN, n
		}
	}
	e.current = best
	e.discontinued = true
}

func relDelta(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(a-b) / b
}

// String summarizes controller state for debugging.
func (e *Explore) String() string {
	return fmt.Sprintf("explore{interval=%d current=%d stable=%t phases=%d}",
		e.intervalLength, e.current, e.stable, e.phaseChanges)
}

var _ pipeline.Controller = (*Explore)(nil)
