package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// record holds one field of every kind the codec carries.
type record struct {
	u64     uint64
	i64     int64
	n       int
	f       float64
	u8      uint8
	u16     uint16
	u32     uint32
	i32     int32
	yes, no bool
	s, e    string
	b       []byte
	words   []uint64
	none    []uint64
	fixed64 []uint64
	fixed32 []uint32
	fixed16 []uint16
	fixed8  []uint8
	flags   []bool
	opt     *uint64
	pairs   []uint64
	byInt   map[int]uint64
	byWord  map[uint64]uint64
}

// newRecord returns a record with every configuration-sized table
// allocated, as a constructor would leave it.
func newRecord() *record {
	return &record{
		fixed64: make([]uint64, 3),
		fixed32: make([]uint32, 2),
		fixed16: make([]uint16, 2),
		fixed8:  make([]uint8, 4),
		flags:   make([]bool, 3),
		byInt:   map[int]uint64{},
		byWord:  map[uint64]uint64{},
	}
}

// state is the record's field list: every Codec primitive once.
func (r *record) state(c *Codec) {
	c.ExpectString("REC", "bad magic %q, want %q")
	c.Expect(7, "version %d, want %d")
	c.Mark("head")
	c.U64(&r.u64)
	c.I64(&r.i64)
	c.Int(&r.n)
	c.Check(r.n >= 0, "n %d negative", r.n)
	c.F64(&r.f)
	Narrow(c, &r.u8)
	Narrow(c, &r.u16)
	Narrow(c, &r.u32)
	Narrow(c, &r.i32)
	c.Bool(&r.yes)
	c.Bool(&r.no)
	c.String(&r.s)
	c.String(&r.e)
	c.Bytes(&r.b)
	c.U64s(&r.words)
	c.U64s(&r.none)
	c.FixedU64s(r.fixed64, "fixed64")
	c.FixedU32s(r.fixed32, "fixed32")
	c.FixedU16s(r.fixed16, "fixed16")
	c.FixedU8s(r.fixed8, "fixed8")
	c.FixedBools(r.flags, "flags")
	c.Len(len(r.fixed64), "fixed64 again")
	if c.Present(r.opt != nil, "optional word") {
		c.U64(r.opt)
	}
	Resize(c, &r.pairs, 8, "pair")
	for i := range r.pairs {
		c.U64(&r.pairs[i])
	}
	Map(c, &r.byInt, 16, "by int")
	Map(c, &r.byWord, 16, "by word")
	c.Mark("tail")
	c.End()
}

func warmRecord() *record {
	r := newRecord()
	opt := uint64(99)
	*r = record{
		u64: ^uint64(0), i64: -42, n: 123456789, f: math.Pi,
		u8: 0xfe, u16: 0xbeef, u32: 0xdeadbeef, i32: -7,
		yes: true, s: "hello|world", b: []byte{1, 2, 3},
		words:   []uint64{9, 8, 7},
		fixed64: []uint64{5, 6, 7}, fixed32: []uint32{4, 1 << 31}, fixed16: []uint16{6, 0xffff},
		fixed8: []uint8{8, 0, 255, 1}, flags: []bool{true, false, true},
		opt:    &opt,
		pairs:  []uint64{11, 12},
		byInt:  map[int]uint64{-3: 1, 40: 2, 7: 3},
		byWord: map[uint64]uint64{1 << 40: 5, 2: 6},
	}
	return r
}

// save runs r's field list through a saving codec and returns the bytes.
func save(t *testing.T, r *record) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewSaver(&buf)
	if c.Loading() {
		t.Fatal("a saving codec reports Loading")
	}
	r.state(c)
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// load runs a fresh record's field list through a loading codec.
func load(data []byte, into *record) error {
	c := NewLoader(bytes.NewReader(data))
	into.state(c)
	return c.Err()
}

// TestRoundTrip drives every primitive through a save and a load: the
// loaded record equals the saved one and saves back to the same bytes.
func TestRoundTrip(t *testing.T) {
	want := warmRecord()
	data := save(t, want)
	got := newRecord()
	var opt uint64
	got.opt = &opt
	if err := load(data, got); err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n  got:  %+v\n  want: %+v", got, want)
	}
	if again := save(t, got); !bytes.Equal(again, data) {
		t.Fatal("a loaded record saves different bytes")
	}
}

// TestDeterministicBytes: maps save in key order, so equal records save
// equal bytes whatever the map's iteration order.
func TestDeterministicBytes(t *testing.T) {
	first := save(t, warmRecord())
	for i := 0; i < 20; i++ {
		if !bytes.Equal(save(t, warmRecord()), first) {
			t.Fatal("identical records produced different bytes")
		}
	}
}

// corrupt returns data with the 8-byte word at off replaced by v.
func corrupt(data []byte, off int, v uint64) []byte {
	out := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		out[off+i] = byte(v >> (8 * i))
	}
	return out
}

// offsetOf returns the offset of the first run of the given words after
// the "head" marker.
func offsetOf(t *testing.T, data []byte, words ...uint64) int {
	t.Helper()
	var run []byte
	for _, v := range words {
		for i := 0; i < 8; i++ {
			run = append(run, byte(v>>(8*i)))
		}
	}
	head := bytes.Index(data, []byte("head"))
	i := bytes.Index(data[head:], run)
	if head < 0 || i < 0 {
		t.Fatalf("words %#x not found", words)
	}
	return head + i
}

// TestLoadRejects: each load-side check fails the load with its message.
func TestLoadRejects(t *testing.T) {
	data := save(t, warmRecord())
	badMagic := append([]byte(nil), data...)
	badMagic[8] = 'X'
	minus3 := -3
	cases := []struct {
		name string
		data []byte
		into func(*record)
		want string
	}{
		{"magic", badMagic, nil, `bad magic "XEC", want "REC"`},
		{"version", corrupt(data, 11, 8), nil, "version 8, want 7"},
		{"check", corrupt(data, offsetOf(t, data, 123456789), 1<<63), nil, "negative"},
		{"u8 overflow", corrupt(data, offsetOf(t, data, 0xfe), 0x1fe), nil, "overflows"},
		{"u16 overflow", corrupt(data, offsetOf(t, data, 0xbeef), 1<<16), nil, "overflows"},
		{"u32 overflow", corrupt(data, offsetOf(t, data, 0xdeadbeef), 1<<32), nil, "overflows"},
		{"i32 overflow", corrupt(data, offsetOf(t, data, math.MaxUint64-6), 1<<31), nil, "overflows"},
		{"fixed32 length", data, func(r *record) { r.fixed32 = nil }, "fixed32 has 0 entries"},
		{"fixed16 length", data, func(r *record) { r.fixed16 = nil }, "fixed16 has 0 entries"},
		{"fixed8 length", data, func(r *record) { r.fixed8 = nil }, "fixed8 has 0 entries"},
		{"bools length", data, func(r *record) { r.flags = nil }, "flags has 0 entries"},
		{"presence", data, func(r *record) { r.opt = nil }, "optional word presence true, receiver has false"},
		{"resize limit", corrupt(data, offsetOf(t, data, 2, 11, 12), 9), nil, "pair count 9 exceeds limit 8"},
		{"map limit", corrupt(data, offsetOf(t, data, 3, uint64(minus3), 1), 17), nil, "by int count 17 exceeds limit 16"},
		{"trailing bytes", append(append([]byte(nil), data...), 0), nil, "trailing bytes"},
	}
	for _, c := range cases {
		r := newRecord()
		var opt uint64
		r.opt = &opt
		if c.into != nil {
			c.into(r)
		}
		if err := load(c.data, r); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestFailedLoadLeavesFieldsAlone: after the first failure every call is a
// no-op, so the fields after it keep the receiver's values.
func TestFailedLoadLeavesFieldsAlone(t *testing.T) {
	data := corrupt(save(t, warmRecord()), 11, 8) // the version word
	r := newRecord()
	r.u64, r.yes, r.s = 5, false, "kept"
	if err := load(data, r); err == nil {
		t.Fatal("a bad version loaded")
	}
	if r.u64 != 5 || r.yes || r.s != "kept" || r.fixed64[0] != 0 || len(r.byInt) != 0 {
		t.Fatalf("a failed load changed later fields: %+v", r)
	}
}

// TestMarkMismatch verifies that a wrong section name fails with a message
// naming both sections.
func TestMarkMismatch(t *testing.T) {
	var buf bytes.Buffer
	c := NewSaver(&buf)
	c.Mark("alpha")
	one := uint64(1)
	c.U64(&one)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(bytes.NewReader(buf.Bytes()))
	ld.Mark("beta")
	err := ld.Err()
	if err == nil || !strings.Contains(err.Error(), "beta") || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("expected mismatch naming both sections, got %v", err)
	}
}

// TestDesync verifies that reading payload bytes as a marker is detected.
func TestDesync(t *testing.T) {
	var buf bytes.Buffer
	c := NewSaver(&buf)
	seven, nine := uint64(7), uint64(9)
	c.U64(&seven)
	c.U64(&nine)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	ld := NewLoader(bytes.NewReader(buf.Bytes()))
	ld.Mark("section")
	if err := ld.Err(); err == nil || !strings.Contains(err.Error(), "desynced") {
		t.Fatalf("expected desync error, got %v", err)
	}
}

// TestFixedU64s verifies the exact-length restore of a configuration-sized
// table: it loads in place at the saved length and fails at any other.
func TestFixedU64s(t *testing.T) {
	var buf bytes.Buffer
	c := NewSaver(&buf)
	c.FixedU64s([]uint64{5, 6, 7}, "table")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 3)
	ld := NewLoader(bytes.NewReader(buf.Bytes()))
	ld.FixedU64s(dst, "table")
	if err := ld.Err(); err != nil || dst[2] != 7 {
		t.Fatalf("FixedU64s: err=%v dst=%v", err, dst)
	}
	short := make([]uint64, 2)
	ld = NewLoader(bytes.NewReader(buf.Bytes()))
	ld.FixedU64s(short, "table")
	if err := ld.Err(); err == nil || !strings.Contains(err.Error(), "table has 2 entries, snapshot holds 3") {
		t.Fatalf("expected length mismatch error, got %v", err)
	}
}

// TestTruncation verifies a stream cut anywhere fails the load rather than
// returning zeroes silently.
func TestTruncation(t *testing.T) {
	data := save(t, warmRecord())
	for cut := 0; cut < len(data); cut++ {
		r := newRecord()
		var opt uint64
		r.opt = &opt
		if err := load(data[:cut], r); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
	}
}

// TestLengthCap verifies a corrupt length field is rejected before
// allocation.
func TestLengthCap(t *testing.T) {
	var buf bytes.Buffer
	c := NewSaver(&buf)
	forged := uint64(maxLen) + 1
	c.U64(&forged)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func(*Codec){
		func(c *Codec) { var b []byte; c.Bytes(&b) },
		func(c *Codec) { var s []uint64; c.U64s(&s) },
		func(c *Codec) { var s string; c.String(&s) },
	} {
		ld := NewLoader(bytes.NewReader(buf.Bytes()))
		load(ld)
		if err := ld.Err(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("expected length-cap error, got %v", err)
		}
	}
}

// TestInvalidBool verifies non-0/1 bool bytes are rejected.
func TestInvalidBool(t *testing.T) {
	ld := NewLoader(bytes.NewReader([]byte{7}))
	var b bool
	ld.Bool(&b)
	if ld.Err() == nil {
		t.Fatal("expected invalid-bool error, got nil")
	}
}

// TestCheckOnlyLoads: a saving codec skips Check, so a check can never
// fail a save.
func TestCheckOnlyLoads(t *testing.T) {
	c := NewSaver(io.Discard)
	if !c.Check(false, "never") || c.Err() != nil {
		t.Fatalf("a saving codec failed a check: %v", c.Err())
	}
	ld := NewLoader(bytes.NewReader(nil))
	if ld.Check(false, "fails %d", 1) || ld.Err() == nil || ld.Err().Error() != "fails 1" {
		t.Fatalf("a loading codec passed a failed check: %v", ld.Err())
	}
	boom := errors.New("boom")
	ld.Fail(boom)
	if ld.Err().Error() != "fails 1" {
		t.Fatal("a later failure replaced the first")
	}
}

// TestBytesGrowsWithInput: a slice longer than the first read chunk round
// trips across the buffer's growth steps, and a stated length far beyond
// the bytes present fails at the truncation without reserving it.
func TestBytesGrowsWithInput(t *testing.T) {
	long := make([]byte, 300_000)
	for i := range long {
		long[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	c := NewSaver(&buf)
	c.Bytes(&long)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	ld := NewLoader(bytes.NewReader(buf.Bytes()))
	if ld.Bytes(&got); ld.Err() != nil || !bytes.Equal(got, long) || cap(got) != len(long) {
		t.Fatalf("Bytes: err=%v len=%d cap=%d, want %d/%d", ld.Err(), len(got), cap(got), len(long), len(long))
	}

	buf.Reset()
	c = NewSaver(&buf)
	forged, word := uint64(maxLen), uint64(42) // a length the cap allows, over only 8 bytes
	c.U64(&forged)
	c.U64(&word)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, load := range []func(*Codec){
		func(c *Codec) { var b []byte; c.Bytes(&b) },
		func(c *Codec) { var s []uint64; c.U64s(&s) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ld = NewLoader(bytes.NewReader(buf.Bytes()))
		load(ld)
		runtime.ReadMemStats(&after)
		if ld.Err() == nil {
			t.Fatal("expected truncation error, got nil")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("a forged length over 8 bytes allocated %d bytes", grew)
		}
	}
}

// TestEnd: End accepts an exhausted stream and rejects trailing bytes and
// a failed read.
func TestEnd(t *testing.T) {
	var buf bytes.Buffer
	c := NewSaver(&buf)
	one := uint64(1)
	c.U64(&one)
	c.End() // a saving codec ignores End
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var v uint64
	ld := NewLoader(bytes.NewReader(buf.Bytes()))
	ld.U64(&v)
	if ld.End(); ld.Err() != nil {
		t.Fatalf("End on an exhausted stream: %v", ld.Err())
	}
	ld = NewLoader(bytes.NewReader(append(buf.Bytes(), 0)))
	ld.U64(&v)
	if ld.End(); ld.Err() == nil {
		t.Fatal("expected trailing-bytes error, got nil")
	}
	boom := errors.New("boom")
	ld = NewLoader(io.MultiReader(bytes.NewReader(buf.Bytes()), iotest.ErrReader(boom)))
	ld.U64(&v)
	if ld.End(); !errors.Is(ld.Err(), boom) {
		t.Fatalf("End over a failing reader: got %v, want %v", ld.Err(), boom)
	}
}

// TestSaveErrorIsSticky: a failing writer surfaces through Flush, and every
// call after the failure is a no-op.
func TestSaveErrorIsSticky(t *testing.T) {
	boom := errors.New("boom")
	c := NewSaver(failingWriter{boom})
	r := warmRecord()
	r.b = make([]byte, 1<<17) // larger than the buffer, so a write reaches the writer
	r.state(c)
	if err := c.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush over a failing writer: got %v, want %v", err, boom)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestBoolSavesWithoutAllocating pins Bool and FixedBools at zero
// allocations: the L2's valid and dirty bits make them the most frequent
// calls in a snapshot. Long tables, which fill the writer's buffer and
// flush it on the way, allocate nothing either.
func TestBoolSavesWithoutAllocating(t *testing.T) {
	c := NewSaver(io.Discard)
	b := true
	flags := make([]bool, 64)
	if n := testing.AllocsPerRun(100, func() { c.Bool(&b) }); n != 0 {
		t.Errorf("Bool allocates %.0f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.FixedBools(flags, "flags") }); n != 0 {
		t.Errorf("FixedBools allocates %.0f times per call", n)
	}
	long := newLongTables()
	if n := testing.AllocsPerRun(100, func() { c.FixedBools(long.flags, "flags") }); n != 0 {
		t.Errorf("FixedBools over %d entries allocates %.0f times per call", len(long.flags), n)
	}
	if n := testing.AllocsPerRun(100, func() { c.FixedU64s(long.words, "words") }); n != 0 {
		t.Errorf("FixedU64s over %d entries allocates %.0f times per call", len(long.words), n)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// longTables holds one table of each bulk kind. At longEntries each is
// longer than a loader's buffer, and the word tables are longer than a
// saver's too.
type longTables struct {
	words   []uint64
	flags   []bool
	fixed32 []uint32
	fixed16 []uint16
}

const longEntries = 20_000

func newLongTables() *longTables {
	return &longTables{
		words:   make([]uint64, longEntries),
		flags:   make([]bool, longEntries),
		fixed32: make([]uint32, longEntries),
		fixed16: make([]uint16, longEntries),
	}
}

// warmLongTables fills every entry with a value that differs from its
// neighbours, so a chunk written or read at the wrong offset shows.
func warmLongTables() *longTables {
	l := newLongTables()
	for i := range longEntries {
		l.words[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		l.flags[i] = i%3 == 1
		l.fixed32[i] = uint32(i) * 2654435761
		l.fixed16[i] = uint16(i * 40503)
	}
	return l
}

func (l *longTables) state(c *Codec) {
	c.FixedU64s(l.words, "words")
	c.FixedBools(l.flags, "flags")
	c.FixedU32s(l.fixed32, "fixed32")
	c.FixedU16s(l.fixed16, "fixed16")
	c.End()
}

// saveLong returns the bytes of l's field list.
func saveLong(t *testing.T, l *longTables) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := NewSaver(&buf)
	if l.state(c); c.Flush() != nil {
		t.Fatalf("save: %v", c.Err())
	}
	return buf.Bytes()
}

// TestLongTablesRoundTrip: tables that span many chunks save the
// element-by-element encoding (a length word, then each element at its
// fixed width) and load back equal.
func TestLongTablesRoundTrip(t *testing.T) {
	want := warmLongTables()
	data := saveLong(t, want)
	var ref []byte
	le := binary.LittleEndian
	ref = le.AppendUint64(ref, longEntries)
	for _, v := range want.words {
		ref = le.AppendUint64(ref, v)
	}
	ref = le.AppendUint64(ref, longEntries)
	for _, v := range want.flags {
		ref = append(ref, boolByte(v))
	}
	ref = le.AppendUint64(ref, longEntries)
	for _, v := range want.fixed32 {
		ref = le.AppendUint64(ref, uint64(v))
	}
	ref = le.AppendUint64(ref, longEntries)
	for _, v := range want.fixed16 {
		ref = le.AppendUint16(ref, v)
	}
	if !bytes.Equal(data, ref) {
		t.Fatalf("long tables save %d bytes that differ from the %d-byte element-wise encoding", len(data), len(ref))
	}
	got := newLongTables()
	ld := NewLoader(bytes.NewReader(data))
	if got.state(ld); ld.Err() != nil {
		t.Fatalf("load: %v", ld.Err())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("long tables do not round trip")
	}
}

// TestLongTablesTruncation: a cut at every offset inside tables that span
// several of the loader's reads fails the load as truncated.
func TestLongTablesTruncation(t *testing.T) {
	l := &longTables{
		words:   make([]uint64, 600),
		flags:   make([]bool, 4500),
		fixed32: make([]uint32, 600),
		fixed16: make([]uint16, 2200),
	}
	data := saveLong(t, l)
	for cut := 0; cut < len(data); cut++ {
		ld := NewLoader(bytes.NewReader(data[:cut]))
		l.state(ld)
		err := ld.Err()
		if err == nil || !strings.Contains(err.Error(), "truncated snapshot") {
			t.Fatalf("cut at %d of %d: got %v, want a truncation", cut, len(data), err)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: %v wraps neither EOF nor ErrUnexpectedEOF", cut, len(data), err)
		}
	}
}

// TestLongTablesRejectDeepCorruption: a bad bool byte and a word that
// overflows 32 bits, deep inside long tables, fail the load with the
// messages the element-wise loads give.
func TestLongTablesRejectDeepCorruption(t *testing.T) {
	data := saveLong(t, warmLongTables())
	const deep = 15_000
	flagsAt := 8 + 8*longEntries + 8 + deep
	badBool := append([]byte(nil), data...)
	badBool[flagsAt] = 2
	fixed32At := 8 + 8*longEntries + 8 + longEntries + 8 + 8*deep
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"bool", badBool, "snap: invalid bool byte 0x2"},
		{"u32", corrupt(data, fixed32At, 1<<32|5), "snap: word 0x100000005 overflows a uint32 field"},
	} {
		ld := NewLoader(bytes.NewReader(c.data))
		newLongTables().state(ld)
		if err := ld.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}
