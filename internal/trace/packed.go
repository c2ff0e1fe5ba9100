package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"

	"clustersim/internal/isa"
)

// Packed is a recorded stream in its compact in-memory form, about 4 bytes
// per instruction against a decoded isa.Instruction's 56. It is what
// replay runs from: immutable once built, so any number of Replayers (each
// keeping only a cursor) may share one across goroutines.
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
// isa.Instruction value, not only those the generators emit. The file
// format is unaffected: packing is purely an in-memory representation.
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
	var e encoder
	for i := range t.Instrs {
		e.add(&t.Instrs[i])
	}
	return &Packed{Meta: t.Meta, Len: len(t.Instrs), data: e.bytes()}
}

// ReadPacked deserializes a trace straight into packed form, with exactly
// Read's validation (the two share one decoder). The fingerprint comes from
// the verified header.
func ReadPacked(rd io.Reader) (*Packed, error) {
	var p *Packed
	var e encoder
	err := readPayload(rd, func(h Header) {
		p = &Packed{Meta: h.Meta, Len: int(h.Count)}
		// readPayload fails unless the content hashes to this value.
		p.fpOnce.Do(func() { p.fp = h.Fingerprint })
		e.buf = make([]byte, 0, capHint(h.Count))
	}, e.add)
	if err != nil {
		return nil, err
	}
	p.data = e.bytes()
	return p, nil
}

// Fingerprint returns the content fingerprint (see Trace.Fingerprint),
// computing it on first use.
func (p *Packed) Fingerprint() uint64 {
	p.fpOnce.Do(func() {
		h := newHasher(p.Meta, uint64(p.Len))
		var c cursor
		var in isa.Instruction
		for i := 0; i < p.Len; i++ {
			c.next(p.data, &in)
			h.add(&in)
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

// varint decodes a zigzag field (binary.AppendVarint's encoding).
func (c *cursor) varint(data []byte) int64 {
	u := c.uvarint(data)
	return int64(u>>1) ^ -int64(u&1)
}
