package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/snap"
	"clustersim/internal/workload"
)

// record builds a short real trace off a built-in generator.
func record(t *testing.T, n uint64) *Trace {
	t.Helper()
	gen, err := workload.New("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	return Record(gen, n, Meta{Name: "gzip", SourceKind: SourceBench, SourceID: "gzip", Seed: 1})
}

// loaders are the two decoders of the file format; every rejection test
// runs against both, so they accept and reject exactly the same inputs.
var loaders = []struct {
	name string
	load func(io.Reader) error
}{
	{"Read", func(r io.Reader) error { _, err := Read(r); return err }},
	{"ReadPacked", func(r io.Reader) error { _, err := ReadPacked(r); return err }},
}

// rejectBoth asserts that both loaders fail on data with an error
// mentioning want ("" accepts any error).
func rejectBoth(t *testing.T, data []byte, want, what string) {
	t.Helper()
	for _, l := range loaders {
		if err := l.load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %s: got %v", l.name, what, err)
		}
	}
}

func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Pack().write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	tr := record(t, 512)
	data := encode(t, tr)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip changed the trace")
	}
	if tr.Fingerprint() != got.Fingerprint() {
		t.Fatalf("fingerprint changed across round trip")
	}
	// Re-encoding is byte-stable.
	if !bytes.Equal(data, encode(t, got)) {
		t.Fatalf("re-encoding is not byte-identical")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := &Trace{Meta: Meta{Name: "empty", SourceKind: SourceCustom, SourceID: "empty"}}
	got, err := Read(bytes.NewReader(encode(t, tr)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Meta != tr.Meta || len(got.Instrs) != 0 {
		t.Fatalf("empty trace round trip: %+v", got)
	}
}

// TestReadRejectsCorruption applies every single-byte flip (each byte,
// each of the 255 non-zero XOR masks) to a valid encoding and demands a
// loud failure: between the canonical-encoding checks, section marks and
// the content fingerprint, no single-byte corruption may load.
func TestReadRejectsCorruption(t *testing.T) {
	data := encode(t, record(t, 16))
	mut := make([]byte, len(data))
	for i := range data {
		for mask := 1; mask < 256; mask++ {
			copy(mut, data)
			mut[i] ^= byte(mask)
			rejectBoth(t, mut, "", fmt.Sprintf("flip %#02x at byte %d of %d", mask, i, len(data)))
		}
	}
}

// TestReadRejectsTruncation cuts a valid encoding at every prefix length.
func TestReadRejectsTruncation(t *testing.T) {
	data := encode(t, record(t, 16))
	for cut := range data {
		rejectBoth(t, data[:cut], "", fmt.Sprintf("truncation to %d of %d bytes", cut, len(data)))
	}
}

// TestReadRejectsWrongMagicAndVersion: a foreign file, a future version and
// a real version-1 recording (testdata/gzip-v1.trace, written by the
// six-word codec) all fail before any payload is read; a version-1 file
// names its version and the commands that re-record it, through every
// entry point that opens a trace file.
func TestReadRejectsWrongMagicAndVersion(t *testing.T) {
	tr := record(t, 4)
	h := Header{Meta: tr.Meta, Count: uint64(len(tr.Instrs)), Fingerprint: tr.Fingerprint()}

	var buf bytes.Buffer
	sv := snap.NewSaver(&buf)
	m, v := "NOT-A-TRACE", uint64(version)
	sv.String(&m)
	sv.U64(&v)
	if err := sv.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "magic", "bad magic")

	buf.Reset()
	sv = snap.NewSaver(&buf)
	m, v = magic, version+1
	sv.String(&m)
	sv.U64(&v)
	headerTail(sv, h)
	if err := sv.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "version", "future version")

	v1 := filepath.Join("testdata", "gzip-v1.trace")
	data, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	const want = "format version 1 (this build reads version 2; re-record with experiments -record-trace or clustersim -record-trace)"
	rejectBoth(t, data, want, "version-1 file")
	_, rerr := ReadFile(v1)
	_, perr := ReadPackedFile(v1)
	_, herr := PeekHeader(v1)
	for _, c := range []struct {
		name string
		err  error
	}{{"ReadFile", rerr}, {"ReadPackedFile", perr}, {"PeekHeader", herr}} {
		if c.err == nil || !strings.Contains(c.err.Error(), want) || !strings.Contains(c.err.Error(), v1) {
			t.Errorf("%s of a version-1 file: got %v", c.name, c.err)
		}
	}
}

// headerTail writes the header fields after magic+version through a saving
// codec, letting tests craft headers with a bad prefix.
func headerTail(sv *snap.Codec, h Header) {
	sv.String(&h.Meta.Name)
	sv.String(&h.Meta.SourceKind)
	sv.String(&h.Meta.SourceID)
	sv.U64(&h.Meta.SourceFP)
	sv.U64(&h.Meta.Seed)
	sv.U64(&h.Count)
	sv.U64(&h.Fingerprint)
}

// craft assembles a version-2 file around a hand-built payload: the header
// of the given instructions (their count and true fingerprint), then
// payload in place of their packed bytes.
func craft(t *testing.T, instrs []isa.Instruction, payload []byte) []byte {
	t.Helper()
	tr := &Trace{Meta: Meta{Name: "crafted", SourceKind: SourceCustom, Seed: 3}, Instrs: instrs}
	var buf bytes.Buffer
	sv := snap.NewSaver(&buf)
	file(sv, &Header{Meta: tr.Meta, Count: uint64(len(instrs)), Fingerprint: tr.Fingerprint()}, &payload)
	if err := sv.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uvs concatenates uvarints into a hand-built payload; zz is the zigzag
// form of a signed delta.
func uvs(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func zz(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// TestReadRejectsNonCanonical: the reader accepts only the bytes Pack
// produces. Each case's header carries the true count and fingerprint of
// the instructions its payload decodes to, so nothing but the named
// encoding rule can object; the first case is the control, Pack's own
// encoding, which must load.
func TestReadRejectsNonCanonical(t *testing.T) {
	at := func(pc uint64) []isa.Instruction { return []isa.Instruction{{PC: pc}} }
	cases := []struct {
		name    string
		instrs  []isa.Instruction
		payload []byte
		want    string // "" accepts
	}{
		{"control: Pack's encoding", at(0x1000), uvs(0, zz(0x1000)), ""},
		{"overlong header varint", at(0x1000), append([]byte{0x80, 0x00}, uvs(zz(0x1000))...), "overlong varint"},
		{"overlong field varint", at(1), []byte{0x00, 0x82, 0x00}, "overlong varint"},
		{"varint past 64 bits", at(0), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, "overflows 64 bits"},
		{"varint past 10 bytes", at(0), bytes.Repeat([]byte{0x80}, 11), "overflows 64 bits"},
		{"sequential PC as a delta", at(4), uvs(0, zz(4)), "sequential PC"},
		{"zero distance marked present", at(0x10), uvs(pSrc2, zz(0x10), 0), "distance marked present is zero"},
		{"zero address marked present", at(0x10), uvs(pAddr, zz(0x10), zz(0)), "address marked present is zero"},
		{"zero target marked present", at(0x10), uvs(pTarget, zz(0x10), zz(-0x10)), "target marked present is zero"},
		{"bad class", []isa.Instruction{{PC: 0x10, Class: isa.NumClasses}}, uvs(uint64(isa.NumClasses)<<pClassShift, zz(0x10)), "invalid instruction class"},
		{"distance above 2^32-1", []isa.Instruction{{PC: 0x10, SrcDist1: 1}}, uvs(pSrc1, zz(0x10), 1<<32+1), "overflows 32 bits"},
		{"payload shorter than count", append(at(0x10), isa.Instruction{PC: 0x14}), uvs(0, zz(0x10)), "payload too short"},
		{"bytes left after count instructions", at(0x10), uvs(0, zz(0x10), pSeqPC), "payload bytes left"},
	}
	for _, c := range cases {
		data := craft(t, c.instrs, c.payload)
		if c.want != "" {
			rejectBoth(t, data, c.want, c.name)
			continue
		}
		for _, l := range loaders {
			if err := l.load(bytes.NewReader(data)); err != nil {
				t.Fatalf("%s: %s: %v", l.name, c.name, err)
			}
		}
	}
}

func TestReadRejectsHugeCount(t *testing.T) {
	var buf bytes.Buffer
	sv := snap.NewSaver(&buf)
	h := Header{Meta: Meta{Name: "x"}, Count: maxCount + 1}
	h.state(sv)
	if err := sv.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "count", "oversized count")
}

// TestReadRejectsPayloadLength: a payload length beyond the bytes present,
// or beyond snap's length cap, fails; and neither it nor a count at the
// limit over a short payload drives an allocation anywhere near what they
// state.
func TestReadRejectsPayloadLength(t *testing.T) {
	// forged states count and length over eight zero payload bytes (four
	// instructions that repeat PC 0).
	forged := func(count, length uint64) []byte {
		var buf bytes.Buffer
		sv := snap.NewSaver(&buf)
		h := Header{Meta: Meta{Name: "x"}, Count: count}
		h.state(sv)
		sv.Mark("instr")
		zero := uint64(0)
		sv.U64(&length)
		sv.U64(&zero)
		sv.Mark("end")
		if err := sv.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rejectBoth(t, forged(1, 1<<28+1), "length", "length over the cap")
	for _, f := range []struct {
		what, want string
		data       []byte
	}{
		{"length beyond the bytes present", "truncated", forged(4, 1<<28)},
		{"count at the limit over a short payload", "payload too short", forged(maxCount, 8)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rejectBoth(t, f.data, f.want, f.what)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: loading allocated %d bytes", f.what, grew)
		}
	}
}

func TestReadRejectsInvalidClass(t *testing.T) {
	tr := record(t, 2)
	tr.Instrs[1].Class = isa.NumClasses // out of range
	// Write packs it faithfully with a true fingerprint, so only the class
	// check can object.
	rejectBoth(t, encode(t, tr), "class", "invalid class")
}

func TestReadRejectsFingerprintMismatch(t *testing.T) {
	tr := record(t, 8)
	var buf bytes.Buffer
	sv := snap.NewSaver(&buf)
	file(sv, &Header{Meta: tr.Meta, Count: uint64(len(tr.Instrs)), Fingerprint: tr.Fingerprint() ^ 1}, &tr.Pack().data)
	if err := sv.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "fingerprint", "fingerprint mismatch")
}

// TestReadRejectsTrailingBytes: nothing may follow the end mark.
func TestReadRejectsTrailingBytes(t *testing.T) {
	rejectBoth(t, append(encode(t, record(t, 4)), 0), "trailing", "byte after the end mark")
}

func TestMetaVerify(t *testing.T) {
	m := Meta{Name: "w", SourceKind: SourceSpec, SourceID: "w", SourceFP: 0xabc, Seed: 7}
	if err := m.Verify(SourceSpec, "w", 0xabc, 7); err != nil {
		t.Errorf("exact match rejected: %v", err)
	}
	if err := m.Verify("", "", 0, 7); err != nil {
		t.Errorf("wildcard expectations rejected: %v", err)
	}
	mismatches := []struct {
		name string
		err  error
	}{
		{"kind", m.Verify(SourceBench, "w", 0xabc, 7)},
		{"id", m.Verify(SourceSpec, "other", 0xabc, 7)},
		{"fp", m.Verify(SourceSpec, "w", 0xdef, 7)},
		{"seed", m.Verify(SourceSpec, "w", 0xabc, 8)},
	}
	for _, c := range mismatches {
		if c.err == nil {
			t.Errorf("mismatched %s accepted", c.name)
		}
	}
}

func TestFileRoundTripAndPeek(t *testing.T) {
	tr := record(t, 256)
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := WriteFile(path, tr); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("file round trip changed the trace")
	}
	h, err := PeekHeader(path)
	if err != nil {
		t.Fatalf("PeekHeader: %v", err)
	}
	if h.Meta != tr.Meta || h.Count != uint64(len(tr.Instrs)) || h.Fingerprint != tr.Fingerprint() {
		t.Fatalf("peeked header %+v disagrees with trace", h)
	}
	// No temp file left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after WriteFile, want 1", len(entries))
	}
}

func TestReplayerMatchesLiveStream(t *testing.T) {
	const n = 2048
	tr := record(t, n)
	live, err := workload.New("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	rp := tr.Replayer()
	if rp.Name() != "gzip" {
		t.Fatalf("replayer name %q", rp.Name())
	}
	var a, b isa.Instruction
	for i := 0; i < n; i++ {
		live.Next(&a)
		rp.Next(&b)
		if a != b {
			t.Fatalf("instruction %d: live %+v vs replay %+v", i, a, b)
		}
	}
	if rp.Remaining() != 0 {
		t.Fatalf("remaining %d after full drain", rp.Remaining())
	}
	rp.Reset()
	if rp.Remaining() != n {
		t.Fatalf("remaining %d after Reset, want %d", rp.Remaining(), n)
	}
}

func TestReplayerExhaustionPanics(t *testing.T) {
	tr := record(t, 2)
	rp := tr.Replayer()
	var in isa.Instruction
	rp.Next(&in)
	rp.Next(&in)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("Next past the end did not panic")
		}
		if _, ok := r.(*ExhaustedError); !ok {
			t.Fatalf("panicked with %T, want *ExhaustedError", r)
		}
	}()
	rp.Next(&in)
}

func TestReplayerSaveLoadState(t *testing.T) {
	const n = 64
	tr := record(t, n)
	rp := tr.Replayer()
	var in isa.Instruction
	for i := 0; i < 17; i++ {
		rp.Next(&in)
	}
	var buf bytes.Buffer
	sv := snap.NewSaver(&buf)
	rp.State(sv)
	if err := sv.Flush(); err != nil {
		t.Fatal(err)
	}

	fresh := tr.Replayer()
	ld := snap.NewLoader(bytes.NewReader(buf.Bytes()))
	fresh.State(ld)
	if err := ld.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if fresh.Remaining() != n-17 {
		t.Fatalf("restored cursor remaining %d, want %d", fresh.Remaining(), n-17)
	}
	var a, b isa.Instruction
	for i := 17; i < n; i++ {
		rp.Next(&a)
		fresh.Next(&b)
		if a != b {
			t.Fatalf("restored replay diverges at %d", i)
		}
	}

	// A snapshot from a different trace must be rejected by fingerprint.
	other := record(t, n+1)
	wrong := other.Replayer()
	ld = snap.NewLoader(bytes.NewReader(buf.Bytes()))
	wrong.State(ld)
	if err := ld.Err(); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("cross-trace restore: got %v", err)
	}
}

// nextCounter is a generator that only counts its draws.
type nextCounter struct{ draws int }

func (g *nextCounter) Name() string             { return "counter" }
func (g *nextCounter) Next(in *isa.Instruction) { g.draws++ }
func (g *nextCounter) Reset()                   {}

// TestRecordFileRejectsHugeCount: a count the header check would reject on
// load fails up front, naming the limit, without drawing an instruction
// or creating the file.
func TestRecordFileRejectsHugeCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.ctrace")
	gen := &nextCounter{}
	_, err := RecordFile(path, gen, maxCount+1, Meta{Name: "counter", SourceKind: SourceCustom})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxCount)) {
		t.Fatalf("RecordFile(maxCount+1) = %v, want an error naming the limit %d", err, maxCount)
	}
	if gen.draws != 0 {
		t.Fatalf("RecordFile drew %d instructions before refusing", gen.draws)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("RecordFile left a file behind: %v", err)
	}
}
