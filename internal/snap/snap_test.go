package snap

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// TestRoundTrip drives every primitive through a write/read cycle.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Mark("head")
	w.U64(^uint64(0))
	w.I64(-42)
	w.Int(123456789)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.String("hello|world")
	w.String("")
	w.Bytes([]byte{1, 2, 3})
	w.U64s([]uint64{9, 8, 7})
	w.U64s(nil)
	w.U32s([]uint32{4, 5})
	w.U16s([]uint16{6, 7})
	w.U8s([]uint8{8})
	w.Bools([]bool{true, false, true})
	w.Mark("tail")
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	r := NewReader(&buf)
	r.Mark("head")
	if v := r.U64(); v != ^uint64(0) {
		t.Errorf("U64 = %d", v)
	}
	if v := r.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.Int(); v != 123456789 {
		t.Errorf("Int = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := r.String(); v != "hello|world" {
		t.Errorf("String = %q", v)
	}
	if v := r.String(); v != "" {
		t.Errorf("empty String = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.U64s(); len(v) != 3 || v[0] != 9 || v[2] != 7 {
		t.Errorf("U64s = %v", v)
	}
	if v := r.U64s(); len(v) != 0 {
		t.Errorf("nil U64s = %v", v)
	}
	if v := r.U32s(); len(v) != 2 || v[1] != 5 {
		t.Errorf("U32s = %v", v)
	}
	if v := r.U16s(); len(v) != 2 || v[0] != 6 {
		t.Errorf("U16s = %v", v)
	}
	if v := r.U8s(); len(v) != 1 || v[0] != 8 {
		t.Errorf("U8s = %v", v)
	}
	if v := r.Bools(); len(v) != 3 || !v[0] || v[1] {
		t.Errorf("Bools = %v", v)
	}
	r.Mark("tail")
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
}

// TestMarkMismatch verifies that a wrong section name fails with a message
// naming both sections.
func TestMarkMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Mark("alpha")
	w.U64(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Mark("beta")
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "beta") || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("expected mismatch naming both sections, got %v", err)
	}
}

// TestDesync verifies that reading payload bytes as a marker is detected.
func TestDesync(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(7)
	w.U64(9)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Mark("section")
	if r.Err() == nil {
		t.Fatal("expected desync error, got nil")
	}
}

// TestTruncation verifies truncated streams fail rather than returning
// zeroes silently forever.
func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64s([]uint64{1, 2, 3, 4})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(cut))
	r.U64s()
	if r.Err() == nil {
		t.Fatal("expected truncation error, got nil")
	}
}

// TestLengthCap verifies a corrupt length field is rejected before
// allocation.
func TestLengthCap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(uint64(maxLen) + 1) // forged length prefix
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.Bytes()
	if r.Err() == nil {
		t.Fatal("expected length-cap error, got nil")
	}
}

// TestFixedU64s verifies the exact-length restore helper.
func TestFixedU64s(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64s([]uint64{5, 6, 7})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 3)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.FixedU64s(dst, "table")
	if err := r.Err(); err != nil || dst[2] != 7 {
		t.Fatalf("FixedU64s: err=%v dst=%v", err, dst)
	}
	short := make([]uint64, 2)
	r = NewReader(bytes.NewReader(buf.Bytes()))
	r.FixedU64s(short, "table")
	if r.Err() == nil {
		t.Fatal("expected length mismatch error, got nil")
	}
}

// TestInvalidBool verifies non-0/1 bool bytes are rejected.
func TestInvalidBool(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{7}))
	r.Bool()
	if r.Err() == nil {
		t.Fatal("expected invalid-bool error, got nil")
	}
}

// TestDeterministicBytes verifies identical writes yield identical bytes.
func TestDeterministicBytes(t *testing.T) {
	enc := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Mark("s")
		w.U64(42)
		w.String("bench")
		w.Bools([]bool{true, false})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical writes produced different bytes")
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
	w := NewWriter(&buf)
	w.Bytes(long)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.Bytes(); r.Err() != nil || !bytes.Equal(got, long) || cap(got) != len(long) {
		t.Fatalf("Bytes: err=%v len=%d cap=%d, want %d/%d", r.Err(), len(got), cap(got), len(long), len(long))
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.U64(maxLen) // forged length, allowed by the cap
	w.U64(42)     // but only 8 bytes follow
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r = NewReader(bytes.NewReader(buf.Bytes()))
	r.Bytes()
	runtime.ReadMemStats(&after)
	if r.Err() == nil {
		t.Fatal("expected truncation error, got nil")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a forged length over 8 bytes allocated %d bytes", grew)
	}
}

// TestEnd: End accepts an exhausted stream and rejects trailing bytes and
// a failed read.
func TestEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.U64()
	if r.End(); r.Err() != nil {
		t.Fatalf("End on an exhausted stream: %v", r.Err())
	}
	r = NewReader(bytes.NewReader(append(buf.Bytes(), 0)))
	r.U64()
	if r.End(); r.Err() == nil {
		t.Fatal("expected trailing-bytes error, got nil")
	}
	boom := errors.New("boom")
	r = NewReader(io.MultiReader(bytes.NewReader(buf.Bytes()), iotest.ErrReader(boom)))
	r.U64()
	if r.End(); !errors.Is(r.Err(), boom) {
		t.Fatalf("End over a failing reader: got %v, want %v", r.Err(), boom)
	}
}
