package policy

import (
	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
)

// Commit-event flag bits in DecisionTrace.flags.
const (
	flagBranch = 1 << iota
	flagCall
	flagReturn
	flagMem
	flagDistant
	flagMispredicted
)

// Decision is one change in a controller's desired active-cluster count:
// at the commit of instruction Seq (cycle Cycle) the controller began
// requesting Active clusters. The first Decision of a trace is the
// controller's initial request.
type Decision struct {
	Seq    uint64 `json:"seq"`
	Cycle  uint64 `json:"cycle"`
	Active int    `json:"active"`
}

// DecisionTrace is the record of everything one run's controller saw and
// decided: the full committed-instruction event stream (the controller's
// entire input — commit cycle, PC and classification flags per
// instruction) plus the decision sequence it produced. Replay feeds the
// stream to another controller, answering "what would policy B have
// decided at every point of this exact run?" without re-simulating.
//
// The replayed decisions are exact with respect to the recorded stream;
// they are counterfactual in that an alternative policy's decisions would
// have changed the machine's timing (and so the stream itself). Exact
// counterfactual scoring therefore re-simulates through the runner pool;
// replay is the cheap first pass that needs no simulation at all.
type DecisionTrace struct {
	// Policy is the recorded controller's Name().
	Policy string
	// TotalClusters is the machine's cluster count, passed to
	// Controller.Reset on replay.
	TotalClusters int

	// The committed-instruction stream, columnar: cycles/seqs/pcs/flags
	// hold one entry per commit.
	cycles []uint64
	seqs   []uint64
	pcs    []uint64
	flags  []uint8

	// Decisions is the recorded controller's decision sequence.
	Decisions []Decision

	// lastWant tracks the recorder's previous desired count so only
	// changes append to Decisions.
	lastWant int
}

// Len returns the number of recorded commit events.
func (t *DecisionTrace) Len() int { return len(t.cycles) }

// Event reconstructs the i-th recorded commit event.
func (t *DecisionTrace) Event(i int) pipeline.CommitEvent {
	fl := t.flags[i]
	return pipeline.CommitEvent{
		Cycle:        t.cycles[i],
		Seq:          t.seqs[i],
		PC:           t.pcs[i],
		IsBranch:     fl&flagBranch != 0,
		IsCall:       fl&flagCall != 0,
		IsReturn:     fl&flagReturn != 0,
		IsMem:        fl&flagMem != 0,
		Distant:      fl&flagDistant != 0,
		Mispredicted: fl&flagMispredicted != 0,
	}
}

// clear drops the recorded stream (keeps the header).
func (t *DecisionTrace) clear() {
	t.cycles = t.cycles[:0]
	t.seqs = t.seqs[:0]
	t.pcs = t.pcs[:0]
	t.flags = t.flags[:0]
	t.Decisions = t.Decisions[:0]
	t.lastWant = 0
}

// record appends one commit event and the controller's response to it.
func (t *DecisionTrace) record(ev pipeline.CommitEvent, want int) {
	var fl uint8
	if ev.IsBranch {
		fl |= flagBranch
	}
	if ev.IsCall {
		fl |= flagCall
	}
	if ev.IsReturn {
		fl |= flagReturn
	}
	if ev.IsMem {
		fl |= flagMem
	}
	if ev.Distant {
		fl |= flagDistant
	}
	if ev.Mispredicted {
		fl |= flagMispredicted
	}
	t.cycles = append(t.cycles, ev.Cycle)
	t.seqs = append(t.seqs, ev.Seq)
	t.pcs = append(t.pcs, ev.PC)
	t.flags = append(t.flags, fl)
	if want > 0 && want != t.lastWant {
		t.Decisions = append(t.Decisions, Decision{Seq: ev.Seq, Cycle: ev.Cycle, Active: want})
		t.lastWant = want
	}
}

// Recorder wraps a controller and captures its decision trace. With a nil
// trace the wrapper is a pure pass-through — one nil test per commit, no
// allocation — so the hook can stay plumbed in permanently and cost
// nothing when recording is off. With a nil inner controller it records a
// static machine: the commit stream alone, no decisions, under the label
// the trace's Policy names.
//
// A recording run is never served from the run cache: its request carries
// a controller without a PolicyKey, and the trace is harvested from the
// instance after the run, which a cache hit would skip.
type Recorder struct {
	inner pipeline.Controller
	trace *DecisionTrace
}

// NewRecorder wraps inner (nil for a static machine, which then needs a
// trace); events and decisions are appended to trace (nil disables
// recording).
func NewRecorder(inner pipeline.Controller, trace *DecisionTrace) *Recorder {
	return &Recorder{inner: inner, trace: trace}
}

// Trace returns the recording target (nil when disabled).
func (r *Recorder) Trace() *DecisionTrace { return r.trace }

// Name implements pipeline.Controller: the wrapper is invisible in results.
func (r *Recorder) Name() string {
	if r.inner == nil {
		return r.trace.Policy
	}
	return r.inner.Name()
}

// Reset implements pipeline.Controller. A fresh run restarts the trace.
func (r *Recorder) Reset(totalClusters int) {
	if r.inner != nil {
		r.inner.Reset(totalClusters)
	}
	if r.trace != nil {
		r.trace.TotalClusters = totalClusters
		r.trace.Policy = r.Name()
		r.trace.clear()
	}
}

// OnCommit implements pipeline.Controller.
func (r *Recorder) OnCommit(ev pipeline.CommitEvent) int {
	want := 0
	if r.inner != nil {
		want = r.inner.OnCommit(ev)
	}
	if r.trace != nil {
		r.trace.record(ev, want)
	}
	return want
}

// AttachObserver forwards pipeline.ObserverAware to the wrapped controller.
func (r *Recorder) AttachObserver(o *obs.Observer) {
	if oa, ok := r.inner.(pipeline.ObserverAware); ok {
		oa.AttachObserver(o)
	}
}

var (
	_ pipeline.Controller    = (*Recorder)(nil)
	_ pipeline.ObserverAware = (*Recorder)(nil)
)

// ReplayResult is a counterfactual replay's outcome: the decision sequence
// the candidate controller produced over the recorded stream.
type ReplayResult struct {
	// Policy is the replayed controller's Name().
	Policy string `json:"policy"`
	// Decisions is the candidate's decision sequence over the stream.
	Decisions []Decision `json:"decisions"`
	// Changes counts desired-count changes after the initial choice —
	// the reconfiguration churn the candidate would have requested.
	Changes int `json:"changes"`
	// FinalActive is the candidate's desired count at stream end.
	FinalActive int `json:"final_active"`
}

// ChurnPerMInstr returns requested reconfigurations per million recorded
// instructions.
func (rr ReplayResult) ChurnPerMInstr(instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return 1e6 * float64(rr.Changes) / float64(instrs)
}

// Replay re-drives policy s over the recorded commit stream, on a fresh
// controller, and returns its decision sequence. A static spec has no
// controller: its machine holds Clusters throughout, so it replays as that
// single decision at the first recorded commit. The same policy replayed
// over its own trace reproduces the recorded Decisions exactly (the oracle
// TestSelfReplayOracle proves across the benchmark matrix).
func (t *DecisionTrace) Replay(s *Spec) (ReplayResult, error) {
	if err := s.Validate(); err != nil {
		return ReplayResult{}, err
	}
	rr := ReplayResult{Policy: pipeline.PolicyName(nil, s.Params.Static.Clusters)}
	want := func(pipeline.CommitEvent) int { return s.Params.Static.Clusters }
	if build := families[s.Name].build; build != nil {
		ctrl := build(&s.Params)
		ctrl.Reset(t.TotalClusters)
		rr.Policy, want = ctrl.Name(), ctrl.OnCommit
	}
	last := 0
	for i := 0; i < t.Len(); i++ {
		if w := want(t.Event(i)); w > 0 && w != last {
			rr.Decisions = append(rr.Decisions, Decision{Seq: t.seqs[i], Cycle: t.cycles[i], Active: w})
			last = w
		}
	}
	rr.FinalActive = last
	if n := len(rr.Decisions); n > 1 {
		rr.Changes = n - 1
	}
	return rr, nil
}

// Agreement returns the fraction of recorded instructions over which the
// two decision sequences request the same active-cluster count. Both
// sequences must come from the same trace (same Seq space); sequences are
// compared as step functions over [firstSeq, lastSeq].
func (t *DecisionTrace) Agreement(a, b []Decision) float64 {
	if t.Len() == 0 {
		return 1
	}
	ai, bi := 0, 0
	aCur, bCur := 0, 0
	agree := uint64(0)
	for i := 0; i < t.Len(); i++ {
		seq := t.seqs[i]
		for ai < len(a) && a[ai].Seq <= seq {
			aCur = a[ai].Active
			ai++
		}
		for bi < len(b) && b[bi].Seq <= seq {
			bCur = b[bi].Active
			bi++
		}
		if aCur == bCur {
			agree++
		}
	}
	return float64(agree) / float64(t.Len())
}
