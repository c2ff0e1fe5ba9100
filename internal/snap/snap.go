// Package snap is the deterministic binary codec behind the simulator's
// checkpoint/resume layer.
//
// Snapshots must be byte-identical for identical machine states (resume
// equivalence is proved by comparing Results, but stable bytes make the
// format diffable and cache-friendly) and must fail loudly — never silently
// misalign — when a file is truncated, corrupt, or written by a different
// layout version. The codec therefore avoids reflection and varints
// entirely: every value is fixed-width little-endian, every slice is
// length-prefixed, and writers interleave named section markers that readers
// verify, so a desync is detected at the section boundary where it happened
// rather than megabytes later as garbage state.
//
// Both Writer and Reader carry a sticky error: the first failure wins and
// every subsequent call is a cheap no-op, so serialization code reads as
// straight-line field lists with a single Err check at the end.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// maxLen bounds every decoded slice and string length. It is far above any
// real simulator structure (the largest is a link calendar at 4096 entries)
// and exists so a corrupt length field cannot drive a multi-gigabyte
// allocation.
const maxLen = 1 << 28

// markTag precedes every section marker so a reader that has desynced into
// arbitrary payload bytes is unlikely to misread one.
const markTag = 0x4b52414d // "MARK"

// Stater is implemented by components that can round-trip their dynamic
// state through a snapshot. SaveState writes the state; LoadState restores
// it into a freshly constructed (same-configuration) component. Errors
// travel through the Writer's/Reader's sticky error.
type Stater interface {
	SaveState(*Writer)
	LoadState(*Reader)
}

// Writer serializes values to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

// NewWriter returns a Writer over w. Call Flush before using the bytes.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Fail records err as the Writer's sticky error (first failure wins).
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Flush drains buffered bytes and returns the sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.Fail(w.w.Flush())
	return w.err
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	_, err := w.w.Write(b)
	w.Fail(err)
}

// U64 writes a fixed-width 64-bit value.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.write(w.buf[:8])
}

// I64 writes a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int (widened to 64 bits).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	w.write([]byte{v})
}

// F64 writes a float64 by its IEEE-754 bits.
func (w *Writer) F64(f float64) { w.U64(math.Float64bits(f)) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.write(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, err := w.w.WriteString(s)
	w.Fail(err)
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(s []uint64) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.U64(v)
	}
}

// U32s writes a length-prefixed []uint32.
func (w *Writer) U32s(s []uint32) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		w.U64(uint64(v))
	}
}

// U16s writes a length-prefixed []uint16.
func (w *Writer) U16s(s []uint16) {
	w.U64(uint64(len(s)))
	for _, v := range s {
		binary.LittleEndian.PutUint16(w.buf[:2], v)
		w.write(w.buf[:2])
	}
}

// U8s writes a length-prefixed []uint8.
func (w *Writer) U8s(s []uint8) { w.Bytes(s) }

// Bools writes a length-prefixed []bool, one byte per element.
func (w *Writer) Bools(s []bool) {
	w.U64(uint64(len(s)))
	for _, b := range s {
		w.Bool(b)
	}
}

// Mark writes a named section marker that the Reader verifies in order.
func (w *Writer) Mark(name string) {
	w.U64(markTag)
	w.String(name)
}

// Reader deserializes values written by a Writer.
type Reader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err as the Reader's sticky error (first failure wins).
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Failf records a formatted sticky error.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

func (r *Reader) read(b []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("snap: truncated snapshot: %w", err)
		}
		r.Fail(err)
		return false
	}
	return true
}

// U64 reads a 64-bit value.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if !r.read(r.buf[:1]) {
		return false
	}
	switch r.buf[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("snap: invalid bool byte %#x", r.buf[0])
		return false
	}
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// length reads and bounds-checks a slice length.
func (r *Reader) length() int {
	n := r.U64()
	if n > maxLen {
		r.Failf("snap: length %d exceeds limit %d (corrupt snapshot?)", n, maxLen)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice. The buffer grows with the
// bytes that actually arrive, doubling from 64 KiB up to exactly the
// stated length, so a corrupt length fails at the truncation after
// allocating at most twice what the stream held.
func (r *Reader) Bytes() []byte {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, min(n, 1<<16))
	for off := 0; ; {
		if !r.read(b[off:]) {
			return nil
		}
		if len(b) == n {
			return b
		}
		off = len(b)
		grown := make([]byte, min(n, 2*off))
		copy(grown, b)
		b = grown
	}
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.U64()
	}
	if r.err != nil {
		return nil
	}
	return s
}

// U32s reads a length-prefixed []uint32.
func (r *Reader) U32s() []uint32 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(r.U64())
	}
	if r.err != nil {
		return nil
	}
	return s
}

// U16s reads a length-prefixed []uint16.
func (r *Reader) U16s() []uint16 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]uint16, n)
	for i := range s {
		if !r.read(r.buf[:2]) {
			return nil
		}
		s[i] = binary.LittleEndian.Uint16(r.buf[:2])
	}
	return s
}

// U8s reads a length-prefixed []uint8.
func (r *Reader) U8s() []uint8 { return r.Bytes() }

// Bools reads a length-prefixed []bool.
func (r *Reader) Bools() []bool {
	n := r.length()
	if r.err != nil {
		return nil
	}
	s := make([]bool, n)
	for i := range s {
		s[i] = r.Bool()
	}
	if r.err != nil {
		return nil
	}
	return s
}

// Mark reads a section marker and verifies its name, failing with a message
// naming both sections when the stream has desynced.
func (r *Reader) Mark(name string) {
	if tag := r.U64(); r.err == nil && tag != markTag {
		r.Failf("snap: expected section %q, found no marker (stream desynced)", name)
		return
	}
	if got := r.String(); r.err == nil && got != name {
		r.Failf("snap: expected section %q, found %q", name, got)
	}
}

// End verifies that the stream holds nothing past what has been read.
func (r *Reader) End() {
	if r.err != nil {
		return
	}
	if _, err := r.r.ReadByte(); err == nil {
		r.Failf("snap: trailing bytes after the last section")
	} else if err != io.EOF {
		r.Fail(err)
	}
}

// FixedU64s reads a []uint64 written by U64s into dst, failing unless the
// stored length matches len(dst) exactly. Components use it to restore
// configuration-sized tables (calendars, predictor arrays) where a length
// change means the snapshot belongs to a different configuration.
func (r *Reader) FixedU64s(dst []uint64, what string) {
	n := r.length()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Failf("snap: %s has %d entries, snapshot holds %d", what, len(dst), n)
		return
	}
	for i := range dst {
		dst[i] = r.U64()
	}
}
