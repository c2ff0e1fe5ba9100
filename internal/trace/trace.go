// Package trace records and replays generated instruction streams.
//
// A workload generator's output depends only on its (program, seed) pair —
// never on the machine simulating it — so a recorded stream is a portable,
// byte-reproducible artifact: replaying a trace file through any processor
// configuration yields exactly the Result a live generator would, on any
// platform, without the generator's code. That makes runs shareable
// (attach the trace to a bug report), auditable (the stream a sweep
// simulated is pinned on disk) and decoupled (a spec can evolve while its
// recorded traces stay replayable).
//
// The file format follows internal/snap's conventions: fixed-width
// little-endian fields, length-prefixed strings, named section markers,
// loud failure on truncation or desync. The header carries the source's
// identity (generator name, source kind/id, spec fingerprint, seed) plus a
// content fingerprint over the whole logical stream, so a replayed trace
// proves what it is before a single instruction is consumed.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"clustersim/internal/isa"
	"clustersim/internal/snap"
	"clustersim/internal/workload"
)

// magic and version identify the file format. Bump version on any layout
// change; readers reject other versions rather than guessing.
const (
	magic   = "CSIM-TRACE"
	version = 1
)

// Source kinds for Meta.SourceKind.
const (
	// SourceBench marks a stream generated by a built-in benchmark;
	// SourceID is the benchmark name.
	SourceBench = "bench"
	// SourceSpec marks a stream compiled from a declarative spec;
	// SourceID is the spec name and SourceFP its fingerprint.
	SourceSpec = "spec"
	// SourceCustom marks any other generator (hand-built workloads).
	SourceCustom = "custom"
)

// maxCount bounds the decoded instruction count (a corrupt header must not
// drive a huge allocation; 2^26 instructions is a ~5 GiB trace file, far
// beyond any simulation window in use).
const maxCount = 1 << 26

// Meta identifies a trace's source. It is written to the header and
// verified on load, so a trace can never silently stand in for a different
// workload.
type Meta struct {
	// Name is the generator's Name() — what Result.Benchmark reports.
	Name string
	// SourceKind is one of SourceBench, SourceSpec, SourceCustom.
	SourceKind string
	// SourceID names the source within its kind (benchmark or spec name).
	SourceID string
	// SourceFP is the spec fingerprint for SourceSpec traces (0 otherwise).
	SourceFP uint64
	// Seed is the workload seed the stream was generated from.
	Seed uint64
}

// Verify checks the metadata against an expected identity; zero-valued
// expectations (empty strings, zero fingerprint) are not checked.
func (m Meta) Verify(kind, id string, fp, seed uint64) error {
	if kind != "" && m.SourceKind != kind {
		return fmt.Errorf("trace: source kind %q, want %q", m.SourceKind, kind)
	}
	if id != "" && m.SourceID != id {
		return fmt.Errorf("trace: source %q, want %q", m.SourceID, id)
	}
	if fp != 0 && m.SourceFP != fp {
		return fmt.Errorf("trace: source fingerprint %016x, want %016x", m.SourceFP, fp)
	}
	if m.Seed != seed {
		return fmt.Errorf("trace: seed %d, want %d", m.Seed, seed)
	}
	return nil
}

// Trace is a recorded instruction stream with its identity.
type Trace struct {
	Meta   Meta
	Instrs []isa.Instruction
}

// Fingerprint hashes the trace's logical content — metadata, count and the
// canonical packed form of every instruction — with FNV-1a 64. It is
// stored in the header on write and recomputed from decoded values on
// read, so any corruption that survives field-level validation still fails
// the load. The same value keys the runner's content-addressed cache for
// replayed runs.
func (t *Trace) Fingerprint() uint64 {
	h := newHasher(t.Meta, uint64(len(t.Instrs)))
	for i := range t.Instrs {
		h.add(&t.Instrs[i])
	}
	return h.sum()
}

// hasher computes the content fingerprint one instruction at a time, so
// every form of a trace — decoded, packed, or streaming off a file — hashes
// the same bytes without materializing the others.
type hasher struct {
	h   hash.Hash64
	buf [48]byte
}

// newHasher starts a fingerprint over a trace of n instructions.
func newHasher(m Meta, n uint64) *hasher {
	h := &hasher{h: fnv.New64a()}
	h.field(m.Name)
	h.field(m.SourceKind)
	h.field(m.SourceID)
	h.u64(m.SourceFP)
	h.u64(m.Seed)
	h.u64(n)
	return h
}

func (h *hasher) field(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:8], v)
	h.h.Write(h.buf[:8])
}

// add hashes one instruction's canonical packed form.
func (h *hasher) add(in *isa.Instruction) {
	for j, w := range packInstr(in) {
		binary.LittleEndian.PutUint64(h.buf[j*8:j*8+8], w)
	}
	h.h.Write(h.buf[:])
}

func (h *hasher) sum() uint64 { return h.h.Sum64() }

// Instruction packing: six 64-bit words per instruction, mirroring the
// field order of the processor snapshot's instruction codec with the three
// booleans folded into the class word's high bits.
const (
	flagHasDest   = 1 << 8
	flagTaken     = 1 << 9
	flagEndsBlock = 1 << 10
	flagsMask     = flagHasDest | flagTaken | flagEndsBlock
)

func packInstr(in *isa.Instruction) [6]uint64 {
	meta := uint64(in.Class)
	if in.HasDest {
		meta |= flagHasDest
	}
	if in.Taken {
		meta |= flagTaken
	}
	if in.EndsBlock {
		meta |= flagEndsBlock
	}
	return [6]uint64{in.PC, meta, uint64(in.SrcDist1), uint64(in.SrcDist2), in.Addr, in.Target}
}

func unpackInstr(words [6]uint64, in *isa.Instruction) error {
	meta := words[1]
	class := meta &^ flagsMask
	if class >= uint64(isa.NumClasses) {
		return fmt.Errorf("trace: invalid instruction class %d", class)
	}
	if words[2] > 1<<32-1 || words[3] > 1<<32-1 {
		return fmt.Errorf("trace: source distance overflows 32 bits")
	}
	in.PC = words[0]
	in.Class = isa.Class(class)
	in.SrcDist1 = uint32(words[2])
	in.SrcDist2 = uint32(words[3])
	in.HasDest = meta&flagHasDest != 0
	in.Taken = meta&flagTaken != 0
	in.EndsBlock = meta&flagEndsBlock != 0
	in.Addr = words[4]
	in.Target = words[5]
	return nil
}

// Header is the identity block at the front of a trace file; PeekHeader
// reads it without decoding the payload.
type Header struct {
	Meta Meta
	// Count is the number of recorded instructions.
	Count uint64
	// Fingerprint is the content hash stored at write time (see
	// Trace.Fingerprint).
	Fingerprint uint64
}

// writeHeader serializes the identity block.
func writeHeader(w *snap.Writer, h Header) {
	w.String(magic)
	w.U64(version)
	w.String(h.Meta.Name)
	w.String(h.Meta.SourceKind)
	w.String(h.Meta.SourceID)
	w.U64(h.Meta.SourceFP)
	w.U64(h.Meta.Seed)
	w.U64(h.Count)
	w.U64(h.Fingerprint)
}

// readHeader deserializes and validates the identity block.
func readHeader(r *snap.Reader) (Header, error) {
	var h Header
	if got := r.String(); r.Err() == nil && got != magic {
		return h, fmt.Errorf("trace: bad magic %q (not a trace file)", got)
	}
	if v := r.U64(); r.Err() == nil && v != version {
		return h, fmt.Errorf("trace: format version %d (this build reads version %d)", v, version)
	}
	h.Meta.Name = r.String()
	h.Meta.SourceKind = r.String()
	h.Meta.SourceID = r.String()
	h.Meta.SourceFP = r.U64()
	h.Meta.Seed = r.U64()
	h.Count = r.U64()
	h.Fingerprint = r.U64()
	if err := r.Err(); err != nil {
		return h, err
	}
	if h.Count > maxCount {
		return h, fmt.Errorf("trace: count %d exceeds limit %d (corrupt header?)", h.Count, maxCount)
	}
	return h, nil
}

// Write serializes the trace.
func Write(wr io.Writer, t *Trace) error {
	w := snap.NewWriter(wr)
	writeHeader(w, Header{Meta: t.Meta, Count: uint64(len(t.Instrs)), Fingerprint: t.Fingerprint()})
	w.Mark("instr")
	for i := range t.Instrs {
		for _, word := range packInstr(&t.Instrs[i]) {
			w.U64(word)
		}
	}
	w.Mark("end")
	return w.Flush()
}

// readPayload is the one decoder of the file format, shared by Read and
// ReadPacked: it validates the header, hands it to begin, then streams each
// validated instruction to add, and fails on truncation, desync, invalid
// field values or a content-fingerprint mismatch. On error the sink's
// partial contents must be discarded.
func readPayload(rd io.Reader, begin func(Header), add func(*isa.Instruction)) error {
	r := snap.NewReader(rd)
	h, err := readHeader(r)
	if err != nil {
		return err
	}
	begin(h)
	r.Mark("instr")
	fp := newHasher(h.Meta, h.Count)
	var words [6]uint64
	var in isa.Instruction
	for i := uint64(0); i < h.Count; i++ {
		for j := range words {
			words[j] = r.U64()
		}
		if err := r.Err(); err != nil {
			return err
		}
		if err := unpackInstr(words, &in); err != nil {
			return fmt.Errorf("%w (instruction %d)", err, i)
		}
		fp.add(&in)
		add(&in)
	}
	r.Mark("end")
	if err := r.Err(); err != nil {
		return err
	}
	if got := fp.sum(); got != h.Fingerprint {
		return fmt.Errorf("trace: content fingerprint %016x does not match header %016x (corrupt trace)", got, h.Fingerprint)
	}
	return nil
}

// capHint bounds up-front allocation by a header's count, so a corrupt
// count that passed the bound check still cannot reserve gigabytes before
// the read fails; slices grow incrementally past it.
func capHint(count uint64) int {
	return int(min(count, 1<<16))
}

// Read deserializes a trace, failing on truncation, desync, invalid field
// values or a content-fingerprint mismatch.
func Read(rd io.Reader) (*Trace, error) {
	var t *Trace
	err := readPayload(rd,
		func(h Header) { t = &Trace{Meta: h.Meta, Instrs: make([]isa.Instruction, 0, capHint(h.Count))} },
		func(in *isa.Instruction) { t.Instrs = append(t.Instrs, *in) })
	if err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile writes the trace atomically (tmp + rename), so a crashed or
// killed recorder never leaves a half-written file where a replayer will
// find it.
func WriteFile(path string, t *Trace) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".trace-*")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer os.Remove(tmp.Name())
	werr := Write(tmp, t)
	cerr := tmp.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return fmt.Errorf("trace: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ReadFile reads and validates the trace at path.
func ReadFile(path string) (*Trace, error) { return readFile(path, Read) }

// ReadPackedFile reads and validates the trace at path straight into packed
// form; the decoded instruction slice never exists.
func ReadPackedFile(path string) (*Packed, error) { return readFile(path, ReadPacked) }

func readFile[T any](path string, read func(io.Reader) (*T, error)) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	t, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return t, nil
}

// PeekHeader reads only the identity block of the trace at path — cheap
// enough to call per sweep cell for cache keying, since the content
// fingerprint is stored up front rather than after the payload.
func PeekHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	h, err := readHeader(snap.NewReader(f))
	if err != nil {
		return Header{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return h, nil
}

// Record drains n instructions from a fresh generator into a trace.
// Generation is machine-independent, so a standalone recording is exactly
// the stream any simulation of the same source consumes. Record leaves gen
// advanced by n instructions.
func Record(gen workload.Generator, n uint64, meta Meta) *Trace {
	t := &Trace{Meta: meta, Instrs: make([]isa.Instruction, n)}
	for i := range t.Instrs {
		gen.Next(&t.Instrs[i])
	}
	return t
}
