// Package core implements the paper's contribution: run-time algorithms
// that tune the number of active clusters to each program phase, balancing
// communication against parallelism.
//
// Three families are provided, matching §4:
//
//   - Explore (§4.2, Figure 4): at each detected phase change, run
//     every candidate configuration for one interval, pick the best IPC,
//     and keep it until the phase changes; the interval length itself
//     adapts (doubling while measurements are unstable).
//   - DistantILP (§4.3): no exploration — run the full-width
//     machine for one interval, measure the degree of distant ILP, and
//     choose directly between a narrow and the widest configuration.
//   - FineGrain (§4.4): reconfigure at basic-block boundaries using a
//     PC-indexed reconfiguration table trained by the distant-ILP content
//     of the 360 committed instructions following each branch; with
//     FineGrainConfig.CallReturnOnly it triggers only at subroutine calls
//     and returns.
//
// All controllers implement pipeline.Controller and observe only committed-
// instruction events — the same information the paper's hardware event
// counters plus a small software handler would see.
package core

import (
	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
)

// intervalMeter accumulates the per-interval statistics every interval-
// based controller needs.
type intervalMeter struct {
	startCycle uint64
	instrs     uint64
	branches   uint64
	memrefs    uint64
	distant    uint64
}

func (m *intervalMeter) observe(ev pipeline.CommitEvent) {
	m.instrs++
	if ev.IsBranch || ev.IsCall || ev.IsReturn {
		m.branches++
	}
	if ev.IsMem {
		m.memrefs++
	}
	if ev.Distant {
		m.distant++
	}
}

func (m *intervalMeter) ipc(now uint64) float64 {
	if now <= m.startCycle {
		// Degenerate span: the whole interval committed within one cycle
		// of the boundary. Score it over a single cycle rather than
		// returning 0, which the phase detectors would misread as a
		// catastrophic IPC drop.
		return float64(m.instrs)
	}
	return float64(m.instrs) / float64(now-m.startCycle)
}

// reset clears the meter and anchors the next interval's IPC denominator
// at the interval boundary. Anchoring at the first commit instead (the
// old behaviour) hid post-reconfiguration drain stalls from the
// controllers and inflated first-interval IPC.
func (m *intervalMeter) reset(boundaryCycle uint64) {
	*m = intervalMeter{startCycle: boundaryCycle}
}

// decisionObserver is the controller-side observability hook shared by the
// reconfiguration policies: it emits decision/interval trace events and
// counts them in the registry. The zero value (no observer) is disabled and
// every method is cheap to call unconditionally.
type decisionObserver struct {
	o *obs.Observer
}

// attach implements the pipeline.ObserverAware plumbing.
func (d *decisionObserver) attach(o *obs.Observer) { d.o = o }

// enabled reports whether any sink is attached.
func (d *decisionObserver) enabled() bool { return d.o.Enabled() }

// decision emits one controller decision with its trigger reason and
// measurements, and bumps the per-trigger registry counter.
func (d *decisionObserver) decision(ev *obs.Event) {
	if !d.o.Enabled() {
		return
	}
	ev.Kind = obs.KindDecision
	d.o.Emit(ev)
	d.o.Counter("ctrl.decisions").Inc()
	d.o.Counter("ctrl.decisions." + ev.Trigger).Inc()
}

// interval emits one interval-boundary event with the interval's
// measurements.
func (d *decisionObserver) interval(ev *obs.Event) {
	if !d.o.Enabled() {
		return
	}
	ev.Kind = obs.KindInterval
	d.o.Emit(ev)
	d.o.Counter("ctrl.intervals").Inc()
}
