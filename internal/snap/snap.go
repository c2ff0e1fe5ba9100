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
// One Codec type runs both directions. A component names each of its
// fields once, in one method taking a *Codec: a saving codec writes the
// fields in that order, a loading codec reads them back into place and runs
// the load-side checks. The save and load lists therefore cannot drift
// apart. The codec carries a sticky error: the first failure wins and every
// later call is a cheap no-op, so a field list reads as straight-line code
// with a single Err check at the end.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
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
// state through a snapshot. State names every field once; a loading Codec
// restores them into a freshly constructed (same-configuration) component.
// Errors travel through the Codec's sticky error.
type Stater interface {
	State(*Codec)
}

// Codec is a two-way snapshot codec: it writes fields to a stream when
// saving and reads them back into place when loading. Only the loading
// direction changes the fields it is handed, and only it runs Check.
type Codec struct {
	w   *bufio.Writer // non-nil when saving
	r   *bufio.Reader // non-nil when loading
	err error
	buf [8]byte
}

// saveBuffer is a saving codec's buffer size: a ~2 MB processor snapshot
// reaches its writer in about 32 writes.
const saveBuffer = 64 << 10

// NewSaver returns a saving Codec over w. Call Flush before using the bytes.
func NewSaver(w io.Writer) *Codec { return &Codec{w: bufio.NewWriterSize(w, saveBuffer)} }

// NewLoader returns a loading Codec over r.
func NewLoader(r io.Reader) *Codec { return &Codec{r: bufio.NewReader(r)} }

// Loading reports whether the codec reads into the fields it is handed.
// Field lists branch on it only where the format is asymmetric by design.
func (c *Codec) Loading() bool { return c.r != nil }

// Err returns the first error encountered, if any.
func (c *Codec) Err() error { return c.err }

// Fail records err as the codec's sticky error (first failure wins).
func (c *Codec) Fail(err error) {
	if c.err == nil && err != nil {
		c.err = err
	}
}

// Check fails a load whose restored state breaks a range or consistency
// rule, with the message format and args describe. A saving codec skips
// the test. Check reports whether the codec is still free of errors, so a
// list can stop before state that depends on the checked value.
func (c *Codec) Check(ok bool, format string, args ...any) bool {
	if c.r != nil && !ok && c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return c.err == nil
}

// Flush drains a saving codec's buffered bytes and returns the sticky
// error.
func (c *Codec) Flush() error {
	if c.w != nil && c.err == nil {
		c.Fail(c.w.Flush())
	}
	return c.err
}

// End fails a load unless the stream holds nothing past what has been
// read. A saving codec ignores it.
func (c *Codec) End() {
	if c.r == nil || c.err != nil {
		return
	}
	if _, err := c.r.ReadByte(); err == nil {
		c.Fail(fmt.Errorf("snap: trailing bytes after the last section"))
	} else if err != io.EOF {
		c.Fail(err)
	}
}

func (c *Codec) put(b []byte) {
	if c.err == nil {
		_, err := c.w.Write(b)
		c.Fail(err)
	}
}

func (c *Codec) get(b []byte) bool {
	if c.err != nil {
		return false
	}
	if _, err := io.ReadFull(c.r, b); err != nil {
		c.Fail(truncated(err))
		return false
	}
	return true
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("snap: truncated snapshot: %w", err)
	}
	return err
}

// word carries one fixed-width word: a saving codec writes v, a loading
// codec returns the word it read, with ok set when the read succeeded.
func (c *Codec) word(v uint64) (uint64, bool) {
	if c.r == nil {
		binary.LittleEndian.PutUint64(c.buf[:], v)
		c.put(c.buf[:8])
		return v, false
	}
	if !c.get(c.buf[:8]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(c.buf[:8]), true
}

// U64 carries a 64-bit value.
func (c *Codec) U64(p *uint64) {
	if v, ok := c.word(*p); ok {
		*p = v
	}
}

// I64 carries a signed 64-bit value.
func (c *Codec) I64(p *int64) {
	if v, ok := c.word(uint64(*p)); ok {
		*p = int64(v)
	}
}

// Int carries an int, widened to 64 bits.
func (c *Codec) Int(p *int) {
	if v, ok := c.word(uint64(*p)); ok {
		*p = int(int64(v))
	}
}

// F64 carries a float64 by its IEEE-754 bits.
func (c *Codec) F64(p *float64) {
	if v, ok := c.word(math.Float64bits(*p)); ok {
		*p = math.Float64frombits(v)
	}
}

// Narrow carries an integer narrower than 64 bits as one 64-bit word. A
// load fails on a word that does not fit *p's type, rather than keeping its
// low bits.
func Narrow[T ~uint8 | ~uint16 | ~uint32 | ~int32](c *Codec, p *T) {
	if v, ok := c.word(uint64(*p)); ok {
		c.Fail(narrow(v, p))
	}
}

// narrow stores word v into *p, or fails if v does not fit *p's type.
func narrow[T ~uint8 | ~uint16 | ~uint32 | ~int32](v uint64, p *T) error {
	if uint64(T(v)) != v {
		return fmt.Errorf("snap: word %#x overflows a %T field (corrupt snapshot?)", v, *p)
	}
	*p = T(v)
	return nil
}

// Bool carries a boolean as one byte, 0 or 1.
func (c *Codec) Bool(p *bool) {
	if c.r == nil {
		if c.err == nil {
			c.Fail(c.w.WriteByte(boolByte(*p)))
		}
		return
	}
	if c.err != nil {
		return
	}
	if b, err := c.r.ReadByte(); err != nil {
		c.Fail(truncated(err))
	} else {
		c.Fail(getBool(b, p))
	}
}

// boolByte is a boolean's byte: 1 for true, 0 for false.
func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// getBool stores byte b into *p, or fails unless it is 0 or 1.
func getBool(b byte, p *bool) error {
	if b > 1 {
		return fmt.Errorf("snap: invalid bool byte %#x", b)
	}
	*p = b == 1
	return nil
}

// bounded carries a count or length: a load fails on one above limit, so a
// corrupt word cannot drive an allocation, and reports whether it read a
// usable one.
func (c *Codec) bounded(n, limit int, what string) (int, bool) {
	v, ok := c.word(uint64(n))
	if ok && v > uint64(limit) {
		c.Fail(fmt.Errorf("snap: %s %d exceeds limit %d (corrupt snapshot?)", what, int64(v), limit))
		return 0, false
	}
	return int(v), ok
}

// count carries a slice or string length, bounded by maxLen.
func (c *Codec) count(n int) (int, bool) { return c.bounded(n, maxLen, "length") }

// Bytes carries a length-prefixed byte slice. A load grows the buffer with
// the bytes that actually arrive, doubling from 64 KiB up to exactly the
// stated length, so a corrupt length fails at the truncation after
// allocating at most twice what the stream held.
func (c *Codec) Bytes(p *[]byte) {
	if c.r == nil {
		c.count(len(*p))
		c.put(*p)
		return
	}
	n, ok := c.count(0)
	if !ok {
		return
	}
	if n == 0 {
		*p = nil
		return
	}
	b := make([]byte, min(n, 1<<16))
	for off := 0; ; {
		if !c.get(b[off:]) {
			return
		}
		if len(b) == n {
			*p = b
			return
		}
		off = len(b)
		grown := make([]byte, min(n, 2*off))
		copy(grown, b)
		b = grown
	}
}

// String carries a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.r == nil {
		c.count(len(*p))
		if c.err == nil {
			_, err := c.w.WriteString(*p)
			c.Fail(err)
		}
		return
	}
	var b []byte
	if c.Bytes(&b); c.err == nil {
		*p = string(b)
	}
}

// U64s carries a length-prefixed []uint64 whose length is machine state. A
// load reuses *p's capacity and grows it only as words arrive.
func (c *Codec) U64s(p *[]uint64) {
	if c.r == nil {
		c.count(len(*p))
		for _, v := range *p {
			c.word(v)
		}
		return
	}
	n, ok := c.count(0)
	if !ok {
		return
	}
	s := (*p)[:0]
	for i := 0; i < n; i++ {
		v, ok := c.word(0)
		if !ok {
			return
		}
		s = append(s, v)
	}
	*p = s
}

// Expect carries a header word that must equal want: a saving codec writes
// want, and a load fails on any other value with format applied to the
// word read and want.
func (c *Codec) Expect(want uint64, format string) {
	if got, ok := c.word(want); ok && got != want {
		c.Fail(fmt.Errorf(format, got, want))
	}
}

// ExpectString is Expect for a header string.
func (c *Codec) ExpectString(want, format string) {
	got := want
	if c.String(&got); c.r != nil && c.err == nil && got != want {
		c.Fail(fmt.Errorf(format, got, want))
	}
}

// Len carries a configuration-shaped count: a saving codec writes n, and a
// load fails unless the snapshot holds the same n, which means the snapshot
// belongs to a different configuration.
func (c *Codec) Len(n int, what string) {
	got := n
	if c.Int(&got); got != n {
		c.Check(false, "snap: %s has %d entries, snapshot holds %d", what, n, got)
	}
}

// Present carries whether an optional component exists, failing a load
// whose snapshot disagrees with the receiver. It reports whether the
// component's fields follow.
func (c *Codec) Present(has bool, what string) bool {
	got := has
	if c.Bool(&got); got != has {
		c.Check(false, "snap: snapshot %s presence %t, receiver has %t", what, got, has)
	}
	return has && c.err == nil
}

// FixedU64s carries a configuration-sized table of words in place: the
// length must match len(s) exactly.
func (c *Codec) FixedU64s(s []uint64, what string) {
	fixed(c, s, what, 8, func(b []byte, s []uint64) []byte {
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}, func(b []byte, s []uint64) error {
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		return nil
	})
}

// FixedU32s is FixedU64s for a table of 32-bit values, one word each. A
// load fails on a word that does not fit 32 bits.
func (c *Codec) FixedU32s(s []uint32, what string) {
	fixed(c, s, what, 8, func(b []byte, s []uint32) []byte {
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}, func(b []byte, s []uint32) error {
		for i := range s {
			if err := narrow(binary.LittleEndian.Uint64(b[8*i:]), &s[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// FixedU16s is FixedU64s for a table of 16-bit values, two bytes each.
func (c *Codec) FixedU16s(s []uint16, what string) {
	fixed(c, s, what, 2, func(b []byte, s []uint16) []byte {
		for _, v := range s {
			b = binary.LittleEndian.AppendUint16(b, v)
		}
		return b
	}, func(b []byte, s []uint16) error {
		for i := range s {
			s[i] = binary.LittleEndian.Uint16(b[2*i:])
		}
		return nil
	})
}

// FixedU8s is FixedU64s for a table of bytes, written as they are.
func (c *Codec) FixedU8s(s []uint8, what string) {
	if c.Len(len(s), what); c.r == nil {
		c.put(s)
	} else {
		c.get(s)
	}
}

// FixedBools is FixedU64s for a table of booleans, one byte each, 0 or 1.
func (c *Codec) FixedBools(s []bool, what string) {
	fixed(c, s, what, 1, func(b []byte, s []bool) []byte {
		for _, v := range s {
			b = append(b, boolByte(v))
		}
		return b
	}, func(b []byte, s []bool) error {
		for i := range s {
			if err := getBool(b[i], &s[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// fixed carries a configuration-sized table of size-byte elements in
// bulk, a chunk at a time. A saving codec encodes each chunk with put
// straight into the writer's free buffer; a loading codec decodes each
// from the reader's buffer with get, in place. A load fails where the
// stream cuts short or at the first element get rejects; the elements
// before it are loaded.
func fixed[T any](c *Codec, s []T, what string, size int, put func([]byte, []T) []byte, get func([]byte, []T) error) {
	c.Len(len(s), what)
	for len(s) > 0 && c.err == nil {
		var n int
		if c.r == nil {
			b := c.w.AvailableBuffer()
			if n = min(len(s), cap(b)/size); n == 0 {
				c.Fail(c.w.Flush())
				continue
			}
			_, err := c.w.Write(put(b, s[:n]))
			c.Fail(err)
		} else {
			b, err := c.r.Peek(min(len(s)*size, c.r.Size()))
			if n = len(b) / size; n == 0 {
				if err == io.EOF && len(b) > 0 {
					err = io.ErrUnexpectedEOF
				}
				c.Fail(truncated(err))
				return
			}
			if err := get(b, s[:n]); err != nil {
				c.Fail(err)
				return
			}
			_, err = c.r.Discard(n * size)
			c.Fail(err)
		}
		s = s[n:]
	}
}

// Resize carries a slice's length. A load checks it against limit and
// resizes *s to it, reusing its capacity, so the caller's loop over *s then
// restores each element in place.
func Resize[T any](c *Codec, s *[]T, limit int, what string) {
	if n, ok := c.bounded(len(*s), limit, what+" count"); ok {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
}

// Map carries a map as its entry count, bounded by limit on load, then its
// key/value pairs in ascending key order, so identical maps write
// identical bytes. Keys travel as 64-bit words. A load replaces *m.
func Map[K ~int | ~uint64](c *Codec, m *map[K]uint64, limit int, what string) {
	if c.r == nil {
		c.word(uint64(len(*m)))
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			c.word(uint64(k))
			c.word((*m)[k])
		}
		return
	}
	n, ok := c.bounded(0, limit, what+" count")
	if !ok {
		return
	}
	loaded := make(map[K]uint64, n)
	for i := 0; i < n; i++ {
		k, _ := c.word(0)
		v, ok := c.word(0)
		if !ok {
			return
		}
		loaded[K(k)] = v
	}
	*m = loaded
}

// Mark carries a named section marker; a load verifies it, failing with a
// message naming both sections when the stream has desynced.
func (c *Codec) Mark(name string) {
	if tag, ok := c.word(markTag); ok && tag != markTag {
		c.Fail(fmt.Errorf("snap: expected section %q, found no marker (stream desynced)", name))
		return
	}
	got := name
	if c.String(&got); c.r != nil && c.err == nil && got != name {
		c.Fail(fmt.Errorf("snap: expected section %q, found %q", name, got))
	}
}
