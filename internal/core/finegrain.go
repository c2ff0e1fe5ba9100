package core

import (
	"fmt"

	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
)

// FineGrainConfig parameterizes the §4.4 basic-block-boundary controller.
// Zero values select the paper's constants; json tags, in order, are spec keys.
type FineGrainConfig struct {
	// EveryNthBranch attempts reconfiguration only at every Nth branch
	// (paper: best performance at every fifth branch).
	EveryNthBranch int `json:"every_nth_branch,omitempty"`
	// Samples is the number of observations of a branch collected before
	// its reconfiguration-table entry is created (paper: 10 for the
	// branch scheme, 3 for the call/return scheme).
	Samples int `json:"samples,omitempty"`
	// TableSize is the direct-mapped reconfiguration-table size (paper:
	// 16K entries "to eliminate effects from aliasing").
	TableSize int `json:"table_size,omitempty"`
	// Window is the committed-instruction window whose distant-ILP
	// content scores a branch (paper: 360 — what four clusters cannot
	// hold).
	Window int `json:"window,omitempty"`
	// Threshold is the distant count in Window above which the wide
	// configuration is advised (DefaultDistantFrac of the window when
	// zero; see that constant for why it differs from the paper's 0.16).
	Threshold int `json:"window_distant,omitempty"`
	// FlushInterval rebuilds the table periodically so stale advice dies
	// (paper: every 10M instructions with negligible overhead).
	FlushInterval uint64 `json:"flush_interval,omitempty"`
	// CallReturnOnly triggers only at subroutine calls and returns
	// (the Figure 6 variant; Huang et al.'s positional adaptation).
	CallReturnOnly bool `json:"call_return_only,omitempty"`
	// Narrow and Wide are the two advised configurations.
	Narrow int `json:"narrow,omitempty"`
	Wide   int `json:"wide,omitempty"`
}

// DefaultFineGrainWindow is FineGrainConfig.Window when zero: the paper's
// 360 instructions.
const DefaultFineGrainWindow = 360

func (c *FineGrainConfig) setDefaults(total int) {
	if c.EveryNthBranch == 0 {
		c.EveryNthBranch = 5
	}
	if c.Samples == 0 {
		if c.CallReturnOnly {
			c.Samples = 3
		} else {
			c.Samples = 10
		}
	}
	if c.TableSize == 0 {
		c.TableSize = 16 * 1024
	}
	if c.Window == 0 {
		c.Window = DefaultFineGrainWindow
	}
	if c.Threshold == 0 {
		c.Threshold = int(float64(c.Window) * DefaultDistantFrac)
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 10_000_000
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
}

// fgEntry is one reconfiguration-table entry.
type fgEntry struct {
	samples    uint16
	distantSum uint32
	advice     uint8 // 0 = still sampling
}

// FineGrain is the §4.4 fine-grained reconfiguration controller: every
// branch is a potential phase boundary. Until a branch has been sampled
// Samples times, dispatch after it assumes the wide configuration so its
// distant-ILP content can be observed; afterwards the table advises narrow
// or wide directly.
type FineGrain struct {
	cfg   FineGrainConfig //simlint:nostate configuration, fixed at construction
	total int             //simlint:nostate configuration, fixed at construction

	table []fgEntry

	// window is a ring of the last Window commit events.
	window     []windowSlot
	head, size int
	distant    int

	branchCounter int
	current       int
	committed     uint64
	lastFlush     uint64

	reconfigLookups uint64
	tableFlushes    uint64

	dobs decisionObserver //simlint:nostate decision observer; checkpointing is refused while one is attached
}

// AttachObserver implements pipeline.ObserverAware. Decisions are emitted
// only when the advised cluster count actually changes, so the trace stays
// proportional to reconfigurations rather than branches.
func (f *FineGrain) AttachObserver(o *obs.Observer) { f.dobs.attach(o) }

type windowSlot struct {
	pc      uint64
	distant bool
	isTrig  bool // a branch (or call/return in that variant)
}

// NewFineGrain returns the §4.4 controller. Pass a zero config for the
// paper's constants.
func NewFineGrain(cfg FineGrainConfig) *FineGrain {
	return &FineGrain{cfg: cfg}
}

// Name implements pipeline.Controller.
func (f *FineGrain) Name() string {
	if f.cfg.CallReturnOnly {
		return "fg-callreturn"
	}
	return "fg-branch"
}

// Reset implements pipeline.Controller.
func (f *FineGrain) Reset(totalClusters int) {
	cfg := f.cfg
	cfg.setDefaults(totalClusters)
	*f = FineGrain{
		cfg:     cfg,
		total:   totalClusters,
		table:   make([]fgEntry, cfg.TableSize),
		window:  make([]windowSlot, cfg.Window),
		current: cfg.Wide,
	}
}

// TableFlushes returns how many periodic table rebuilds occurred.
func (f *FineGrain) TableFlushes() uint64 { return f.tableFlushes }

func (f *FineGrain) index(pc uint64) int {
	h := (pc >> 2) ^ (pc >> 17)
	return int(h) & (f.cfg.TableSize - 1)
}

// OnCommit implements pipeline.Controller.
func (f *FineGrain) OnCommit(ev pipeline.CommitEvent) int {
	f.committed++
	if f.committed-f.lastFlush >= f.cfg.FlushInterval {
		for i := range f.table {
			f.table[i] = fgEntry{}
		}
		f.lastFlush = f.committed
		f.tableFlushes++
	}

	trigger := false
	if f.cfg.CallReturnOnly {
		trigger = ev.IsCall || ev.IsReturn
	} else {
		trigger = ev.IsBranch || ev.IsCall || ev.IsReturn
	}

	// Slide the 360-instruction window; when a trigger instruction falls
	// out, the running distant count is its sample.
	if f.size == f.cfg.Window {
		old := f.window[f.head]
		if old.distant {
			f.distant--
		}
		if old.isTrig {
			f.recordSample(old.pc, f.distant)
		}
	} else {
		f.size++
	}
	f.window[f.head] = windowSlot{pc: ev.PC, distant: ev.Distant, isTrig: trigger}
	f.head++
	if f.head == f.cfg.Window {
		f.head = 0
	}
	if ev.Distant {
		f.distant++
	}

	if !trigger {
		return f.current
	}
	f.branchCounter++
	if !f.cfg.CallReturnOnly && f.branchCounter%f.cfg.EveryNthBranch != 0 {
		return f.current
	}
	f.reconfigLookups++
	e := &f.table[f.index(ev.PC)]
	old := f.current
	reason := "table-advice"
	if e.advice != 0 {
		f.current = int(e.advice)
	} else {
		// Unknown branch: use the wide machine so its distant ILP can
		// be measured.
		f.current = f.cfg.Wide
		reason = "unknown-branch"
	}
	if f.current != old {
		f.dobs.decision(&obs.Event{Cycle: ev.Cycle, Policy: f.Name(),
			Trigger: reason, OldActive: old, NewActive: f.current, PC: ev.PC})
	}
	return f.current
}

// recordSample accumulates one observed distant-ILP count for the branch at
// pc; the Samples-th observation freezes the advice.
func (f *FineGrain) recordSample(pc uint64, distant int) {
	e := &f.table[f.index(pc)]
	if e.advice != 0 || int(e.samples) >= f.cfg.Samples {
		return
	}
	e.samples++
	e.distantSum += uint32(distant)
	if int(e.samples) == f.cfg.Samples {
		mean := int(e.distantSum) / int(e.samples)
		if mean >= f.cfg.Threshold {
			e.advice = uint8(f.cfg.Wide)
		} else {
			e.advice = uint8(f.cfg.Narrow)
		}
	}
}

// String summarizes controller state.
func (f *FineGrain) String() string {
	return fmt.Sprintf("%s{current=%d lookups=%d}", f.Name(), f.current, f.reconfigLookups)
}

var _ pipeline.Controller = (*FineGrain)(nil)
