package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"clustersim/internal/isa"
)

// Packed is a recorded stream in its compact form, about 4 bytes per
// instruction against a decoded isa.Instruction's 56. It is what replay
// runs from and, byte for byte, a trace file's payload: immutable once
// built, so any number of Replayers (each keeping only a cursor) may share
// one across goroutines.
//
// Each instruction is a uvarint header followed only by the fields that
// are present:
//
//	header   flag bits (below), with the class in bits 8 and up
//	PC       zigzag delta from the previous PC, absent when PC == previous PC + 4
//	SrcDist1 uvarint, absent when zero
//	SrcDist2 uvarint, absent when zero
//	Addr     zigzag delta from the previous non-zero Addr, absent when zero
//	Target   zigzag Target − PC, absent when zero
//
// All arithmetic wraps, so the encoding is lossless for every
// isa.Instruction value, not only those the generators emit. Each value
// has exactly one encoding, which is the only one a file may hold (see
// check).
type Packed struct {
	Meta Meta
	// Len is the number of recorded instructions.
	Len  int
	data []byte

	fpOnce sync.Once
	fp     uint64
}

// Packed header flag bits; every real class fits in 4 bits above them, so
// headers take two bytes.
const (
	pHasDest = 1 << iota
	pTaken
	pEndsBlock
	pSeqPC
	pSrc1
	pSrc2
	pAddr
	pTarget
	pClassShift = 8
)

// Pack encodes the trace. The content fingerprint is not computed here but
// on the first call to Fingerprint, at most once.
func (t *Trace) Pack() *Packed {
	e := newEncoder(len(t.Instrs))
	for i := range t.Instrs {
		e.add(&t.Instrs[i])
	}
	return &Packed{Meta: t.Meta, Len: len(t.Instrs), data: e.bytes()}
}

// packed wraps an encoding of h.Count instructions whose fingerprint is
// already known.
func packed(h Header, data []byte) *Packed {
	p := &Packed{Meta: h.Meta, Len: int(h.Count), data: data}
	p.fpOnce.Do(func() { p.fp = h.Fingerprint })
	return p
}

// Fingerprint returns the content fingerprint (see Trace.Fingerprint),
// computing it on first use.
func (p *Packed) Fingerprint() uint64 {
	p.fpOnce.Do(func() {
		h := newFingerprint(p.Meta, uint64(p.Len))
		var c cursor
		var in isa.Instruction
		for i := 0; i < p.Len; i++ {
			c.next(p.data, &in)
			h.instr(&in)
		}
		p.fp = h.sum()
	})
	return p.fp
}

// encoder appends instructions in packed form.
type encoder struct {
	buf      []byte
	pc, addr uint64 // previous PC and previous non-zero Addr
}

// newEncoder returns an encoder with room for n instructions at 4 bytes
// each; the benchmark streams pack to ~3.8, so the buffer rarely grows.
func newEncoder(n int) encoder { return encoder{buf: make([]byte, 0, 4*n)} }

func (e *encoder) add(in *isa.Instruction) {
	h := uint64(in.Class) << pClassShift
	if in.HasDest {
		h |= pHasDest
	}
	if in.Taken {
		h |= pTaken
	}
	if in.EndsBlock {
		h |= pEndsBlock
	}
	seq := in.PC == e.pc+4
	if seq {
		h |= pSeqPC
	}
	if in.SrcDist1 != 0 {
		h |= pSrc1
	}
	if in.SrcDist2 != 0 {
		h |= pSrc2
	}
	if in.Addr != 0 {
		h |= pAddr
	}
	if in.Target != 0 {
		h |= pTarget
	}
	b := binary.AppendUvarint(e.buf, h)
	if !seq {
		b = binary.AppendVarint(b, int64(in.PC-e.pc))
	}
	if in.SrcDist1 != 0 {
		b = binary.AppendUvarint(b, uint64(in.SrcDist1))
	}
	if in.SrcDist2 != 0 {
		b = binary.AppendUvarint(b, uint64(in.SrcDist2))
	}
	if in.Addr != 0 {
		b = binary.AppendVarint(b, int64(in.Addr-e.addr))
		e.addr = in.Addr
	}
	if in.Target != 0 {
		b = binary.AppendVarint(b, int64(in.Target-in.PC))
	}
	e.buf, e.pc = b, in.PC
}

// bytes returns the encoding trimmed to its length, so a long-lived Packed
// does not hold append's spare capacity.
func (e *encoder) bytes() []byte { return bytes.Clone(e.buf) }

// cursor decodes packed instructions in order. Its state is derived: the
// byte offset and delta bases at any instruction index follow from decoding
// the stream up to it.
type cursor struct {
	off      int
	pc, addr uint64 // previous PC and previous non-zero Addr
}

// next decodes the instruction at the cursor into in. data must be an
// encoder's output with an instruction left at the cursor.
func (c *cursor) next(data []byte, in *isa.Instruction) {
	h := c.uvarint(data)
	pc := c.pc + 4
	if h&pSeqPC == 0 {
		pc = c.pc + uint64(c.varint(data))
	}
	*in = isa.Instruction{
		PC:        pc,
		Class:     isa.Class(h >> pClassShift),
		HasDest:   h&pHasDest != 0,
		Taken:     h&pTaken != 0,
		EndsBlock: h&pEndsBlock != 0,
	}
	if h&pSrc1 != 0 {
		in.SrcDist1 = uint32(c.uvarint(data))
	}
	if h&pSrc2 != 0 {
		in.SrcDist2 = uint32(c.uvarint(data))
	}
	if h&pAddr != 0 {
		c.addr += uint64(c.varint(data))
		in.Addr = c.addr
	}
	if h&pTarget != 0 {
		in.Target = pc + uint64(c.varint(data))
	}
	c.pc = pc
}

func (c *cursor) uvarint(data []byte) uint64 {
	// Headers take two bytes and most fields one; take both without the
	// general loop.
	b := data[c.off]
	if b < 0x80 {
		c.off++
		return uint64(b)
	}
	if b2 := data[c.off+1]; b2 < 0x80 {
		c.off += 2
		return uint64(b&0x7f) | uint64(b2)<<7
	}
	v, n := binary.Uvarint(data[c.off:])
	c.off += n
	return v
}

// varint decodes a zigzag field.
func (c *cursor) varint(data []byte) int64 { return zigzag(c.uvarint(data)) }

// zigzag decodes binary.AppendVarint's encoding of a signed value.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// check validates a file payload against the instruction count its header
// states, folding every decoded instruction into fp. It accepts exactly
// the bytes encoder.add produces for count instructions whose classes are
// below isa.NumClasses: presence bits agree with non-zero fields, a PC of
// the previous PC + 4 is only ever the sequential bit, every varint is
// minimal and fits 64 bits, distances fit 32 bits, and the instructions
// fill data to its last byte.
func check(data []byte, count uint64, fp *fingerprint) error {
	k := checker{data: data}
	var in isa.Instruction
	for i := uint64(0); i < count; i++ {
		if k.next(&in); k.err != nil {
			return fmt.Errorf("trace: %w (instruction %d)", k.err, i)
		}
		fp.instr(&in)
	}
	if k.off != len(data) {
		return fmt.Errorf("trace: %d payload bytes left after %d instructions", len(data)-k.off, count)
	}
	return nil
}

// checker decodes like cursor.next, verifying every field on the way; the
// first violation sticks in err.
type checker struct {
	cursor
	data []byte
	err  error
}

func (k *checker) failf(format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf(format, args...)
	}
}

func (k *checker) next(in *isa.Instruction) {
	h := k.uvarint()
	if class := h >> pClassShift; class >= uint64(isa.NumClasses) {
		k.failf("invalid instruction class %d", class)
	}
	pc := k.pc + 4
	if h&pSeqPC == 0 {
		d := k.varint()
		if d == 4 {
			k.failf("sequential PC encoded as a delta")
		}
		pc = k.pc + uint64(d)
	}
	*in = isa.Instruction{
		PC:        pc,
		Class:     isa.Class(h >> pClassShift),
		HasDest:   h&pHasDest != 0,
		Taken:     h&pTaken != 0,
		EndsBlock: h&pEndsBlock != 0,
	}
	in.SrcDist1 = k.dist(h&pSrc1 != 0)
	in.SrcDist2 = k.dist(h&pSrc2 != 0)
	if h&pAddr != 0 {
		k.addr += uint64(k.varint())
		if k.addr == 0 {
			k.failf("address marked present is zero")
		}
		in.Addr = k.addr
	}
	if h&pTarget != 0 {
		if in.Target = pc + uint64(k.varint()); in.Target == 0 {
			k.failf("target marked present is zero")
		}
	}
	k.pc = pc
}

// dist decodes a source distance marked present, which must be non-zero
// and fit 32 bits.
func (k *checker) dist(present bool) uint32 {
	if !present {
		return 0
	}
	v := k.uvarint()
	if v == 0 {
		k.failf("source distance marked present is zero")
	}
	if v > math.MaxUint32 {
		k.failf("source distance %d overflows 32 bits", v)
	}
	return uint32(v)
}

// uvarint decodes one uvarint, which must lie inside data, fit 64 bits and
// be minimal (no trailing zero byte after a continuation).
func (k *checker) uvarint() uint64 {
	if k.err != nil {
		return 0
	}
	v, n := binary.Uvarint(k.data[k.off:])
	switch {
	case n == 0:
		k.failf("payload too short")
	case n < 0:
		k.failf("varint overflows 64 bits")
	case n > 1 && k.data[k.off+n-1] == 0:
		k.failf("overlong varint")
	default:
		k.off += n
		return v
	}
	return 0
}

// varint decodes a zigzag field.
func (k *checker) varint() int64 { return zigzag(k.uvarint()) }
