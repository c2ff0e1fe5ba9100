// Package snapfix exercises the snapstate coverage rules: every field
// of a struct with a snapshot codec must be mentioned in the codec (or
// in same-receiver helpers it calls), or annotated //simlint:nostate.
package snapfix

import (
	"io"

	"clustersim/internal/snap"
)

// Machine declares the exported single-method codec.
type Machine struct {
	PC    uint64
	Regs  [16]uint64
	Drift uint64            // want `field Machine\.Drift is not serialized by the Machine snapshot codec`
	cache map[uint64]uint64 //simlint:nostate rebuilt lazily on first access after resume
}

// State covers PC directly and Regs through a helper, for both directions.
func (m *Machine) State(c *snap.Codec) {
	c.U64(&m.PC)
	for _, r := range m.regs() {
		c.U64(r)
	}
}

// regs is a same-receiver helper without a codec: its mentions count
// because State calls it.
func (m *Machine) regs() []*uint64 {
	out := make([]*uint64, len(m.Regs))
	for i := range m.Regs {
		out[i] = &m.Regs[i]
	}
	return out
}

// bank's codec is an unexported field list taking extra arguments.
type bank struct {
	rows  []uint64
	dirty bool // want `field bank\.dirty is not serialized by the bank snapshot codec`
}

func (b *bank) state(c *snap.Codec, what string) { c.FixedU64s(b.rows, what) }

// proc is recognized by its checkpoint wrappers, which take streams
// rather than a codec.
type proc struct {
	cycle uint64
	seq   uint64
	stale uint64 // want `field proc\.stale is not serialized by the proc snapshot codec`
}

func (p *proc) SaveCheckpoint(w io.Writer) error {
	_, err := w.Write([]byte{byte(p.cycle)})
	return err
}

func (p *proc) LoadCheckpoint(r io.Reader) error {
	p.seq = 0
	return nil
}

// plain has no codec: a State method without a *snap.Codec is not one,
// so nothing is required of it.
type plain struct {
	scratch uint64
}

func (p *plain) bump()          { p.scratch++ }
func (p *plain) State() float64 { return 0 }
