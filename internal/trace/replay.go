package trace

import (
	"fmt"

	"clustersim/internal/isa"
	"clustersim/internal/snap"
	"clustersim/internal/workload"
)

// DefaultHeadroom is the recommended margin of extra instructions to
// record beyond the simulated window. The front end fetches ahead of
// commit (bounded by the ROB, the fetch queue and in-flight wrong-path
// slots) and different policies fetch different amounts, so a trace that
// should serve a whole policy matrix needs slack past the largest window
// it will replay. 8192 comfortably exceeds any configuration's fetch-ahead
// (ROB 480 + fetch queue + redirect slop).
const DefaultHeadroom = 8192

// ExhaustedError reports a replay that ran off the end of its trace: the
// machine tried to fetch more instructions than were recorded. Recover by
// re-recording with more headroom (see DefaultHeadroom).
type ExhaustedError struct {
	// Name is the trace's generator name; Len its recorded length.
	Name string
	Len  int
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("trace: replay of %q exhausted its %d recorded instructions (re-record with more headroom)", e.Name, e.Len)
}

// Replayer replays a packed recording as a workload.Generator. Multiple
// replayers may share one immutable *Packed (each keeps only a cursor), so
// a sweep replays a file loaded once. It implements snap.Stater: a
// checkpointed replay run resumes exactly like a live-generator run, with
// the trace fingerprint verified against the snapshot.
type Replayer struct {
	p   *Packed //simlint:nostate construction state: the resuming process re-reads the trace file, and LoadState verifies its fingerprint
	pos int
	cur cursor //simlint:nostate derived from pos: LoadState re-decodes the stream up to the saved cursor
}

// Replayer returns a fresh cursor over the packed trace.
func (p *Packed) Replayer() *Replayer { return &Replayer{p: p} }

// Replayer packs the trace and returns a fresh cursor over it.
func (t *Trace) Replayer() *Replayer { return t.Pack().Replayer() }

// Name returns the recorded generator name.
func (r *Replayer) Name() string { return r.p.Meta.Name }

// Remaining returns how many recorded instructions are left to replay.
func (r *Replayer) Remaining() int { return r.p.Len - r.pos }

// Next fills in with the next recorded instruction. Running off the end of
// the recording panics with an *ExhaustedError: the Generator contract has
// no error path, and a short trace is a recording mistake, not a runtime
// condition — the runner's per-run recover turns it into a RunError.
func (r *Replayer) Next(in *isa.Instruction) {
	if r.pos >= r.p.Len {
		//simlint:allow nopanic Generator.Next has no error path; a short trace is a recording error, surfaced via the runner's per-run recover
		panic(&ExhaustedError{Name: r.p.Meta.Name, Len: r.p.Len})
	}
	r.cur.next(r.p.data, in)
	r.pos++
}

// Reset rewinds the replay to the first recorded instruction.
func (r *Replayer) Reset() { r.pos, r.cur = 0, cursor{} }

// SaveState writes the replay cursor plus the trace's identity, so a
// snapshot can never resume against a different recording.
func (r *Replayer) SaveState(w *snap.Writer) {
	w.Mark("trace-replay")
	w.U64(r.p.Fingerprint())
	w.Int(r.pos)
}

// LoadState restores the cursor after verifying the snapshot was taken
// over the same trace content, decoding forward from the start to rebuild
// the derived decoder state.
func (r *Replayer) LoadState(rd *snap.Reader) {
	rd.Mark("trace-replay")
	fp := rd.U64()
	pos := rd.Int()
	if rd.Err() != nil {
		return
	}
	if want := r.p.Fingerprint(); fp != want {
		rd.Failf("trace: snapshot was taken over trace %016x, replaying %016x", fp, want)
		return
	}
	if pos < 0 || pos > r.p.Len {
		rd.Failf("trace: snapshot cursor %d outside [0,%d]", pos, r.p.Len)
		return
	}
	r.Reset()
	var in isa.Instruction
	for r.pos < pos {
		r.Next(&in)
	}
}

// Recorder tees a live generator: the simulation consumes the stream as
// usual while every instruction is retained for a Trace. Use Extend
// afterward to bank headroom beyond what the run fetched, so one recording
// replays under policies that fetch further ahead.
type Recorder struct {
	gen workload.Generator
	buf []isa.Instruction
}

// NewRecorder wraps gen.
func NewRecorder(gen workload.Generator) *Recorder { return &Recorder{gen: gen} }

// Name returns the wrapped generator's name.
func (r *Recorder) Name() string { return r.gen.Name() }

// Next forwards to the wrapped generator and records the instruction.
func (r *Recorder) Next(in *isa.Instruction) {
	r.gen.Next(in)
	r.buf = append(r.buf, *in)
}

// Reset rewinds the wrapped generator and discards the recording.
func (r *Recorder) Reset() {
	r.gen.Reset()
	r.buf = r.buf[:0]
}

// Recorded returns how many instructions have been recorded so far.
func (r *Recorder) Recorded() int { return len(r.buf) }

// Extend drains n more instructions from the generator into the recording
// without handing them to a consumer.
func (r *Recorder) Extend(n uint64) {
	base := len(r.buf)
	r.buf = append(r.buf, make([]isa.Instruction, n)...)
	for i := base; i < len(r.buf); i++ {
		r.gen.Next(&r.buf[i])
	}
}

// Trace copies the recording into a Trace under the given identity.
func (r *Recorder) Trace(meta Meta) *Trace {
	return &Trace{Meta: meta, Instrs: append([]isa.Instruction(nil), r.buf...)}
}
