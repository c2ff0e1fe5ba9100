package trace

import (
	"fmt"

	"clustersim/internal/isa"
	"clustersim/internal/snap"
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
	p   *Packed //simlint:nostate construction state: the resuming process re-reads the trace file, and State verifies its fingerprint
	pos int
	cur cursor //simlint:nostate derived from pos: a loading State re-decodes the stream up to the saved cursor
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

// State carries the replay cursor plus the trace's identity, so a snapshot
// can never resume against a different recording. A load decodes forward
// from the start to rebuild the derived decoder state.
func (r *Replayer) State(c *snap.Codec) {
	c.Mark("trace-replay")
	c.Expect(r.p.Fingerprint(), "trace: snapshot was taken over trace %016x, replaying %016x")
	pos := r.pos
	c.Int(&pos)
	if c.Check(pos >= 0 && pos <= r.p.Len, "trace: snapshot cursor %d outside [0,%d]", pos, r.p.Len) && c.Loading() {
		r.Reset()
		var in isa.Instruction
		for r.pos < pos {
			r.Next(&in)
		}
	}
}
