package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
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

// TestReadRejectsCorruption flips every byte of a valid encoding, one at a
// time, and demands a loud failure: between field validation, section
// marks and the content fingerprint, no single-byte corruption may load.
func TestReadRejectsCorruption(t *testing.T) {
	data := encode(t, record(t, 16))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		rejectBoth(t, mut, "", fmt.Sprintf("flip at byte %d of %d", i, len(data)))
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	data := encode(t, record(t, 16))
	for _, cut := range []int{0, 1, 10, 18, 50, len(data) / 2, len(data) - 1} {
		rejectBoth(t, data[:cut], "", fmt.Sprintf("truncation to %d of %d bytes", cut, len(data)))
	}
}

func TestReadRejectsWrongMagicAndVersion(t *testing.T) {
	tr := record(t, 4)
	h := Header{Meta: tr.Meta, Count: uint64(len(tr.Instrs)), Fingerprint: tr.Fingerprint()}

	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.String("NOT-A-TRACE")
	w.U64(version)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "magic", "bad magic")

	buf.Reset()
	w = snap.NewWriter(&buf)
	w.String(magic)
	w.U64(version + 1)
	writeHeaderTail(w, h)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "version", "future version")
}

// writeHeaderTail writes the header fields after magic+version, letting
// tests craft headers with a bad prefix.
func writeHeaderTail(w *snap.Writer, h Header) {
	w.String(h.Meta.Name)
	w.String(h.Meta.SourceKind)
	w.String(h.Meta.SourceID)
	w.U64(h.Meta.SourceFP)
	w.U64(h.Meta.Seed)
	w.U64(h.Count)
	w.U64(h.Fingerprint)
}

func TestReadRejectsHugeCount(t *testing.T) {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	writeHeader(w, Header{Meta: Meta{Name: "x"}, Count: maxCount + 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "count", "oversized count")
}

func TestReadRejectsInvalidClass(t *testing.T) {
	tr := record(t, 2)
	tr.Instrs[1].Class = isa.NumClasses // out of range
	// Recompute the fingerprint so only the class check can object.
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "class", "invalid class")
}

func TestReadRejectsFingerprintMismatch(t *testing.T) {
	tr := record(t, 8)
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	writeHeader(w, Header{Meta: tr.Meta, Count: uint64(len(tr.Instrs)), Fingerprint: tr.Fingerprint() ^ 1})
	w.Mark("instr")
	for i := range tr.Instrs {
		for _, word := range packInstr(&tr.Instrs[i]) {
			w.U64(word)
		}
	}
	w.Mark("end")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rejectBoth(t, buf.Bytes(), "fingerprint", "fingerprint mismatch")
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
	w := snap.NewWriter(&buf)
	rp.SaveState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	fresh := tr.Replayer()
	r := snap.NewReader(bytes.NewReader(buf.Bytes()))
	fresh.LoadState(r)
	if err := r.Err(); err != nil {
		t.Fatalf("LoadState: %v", err)
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
	r = snap.NewReader(bytes.NewReader(buf.Bytes()))
	wrong.LoadState(r)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("cross-trace restore: got %v", err)
	}
}

func TestRecorderTee(t *testing.T) {
	gen, err := workload.New("swim", 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workload.New("swim", 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(gen)
	if rec.Name() != "swim" {
		t.Fatalf("recorder name %q", rec.Name())
	}
	var a, b isa.Instruction
	for i := 0; i < 500; i++ {
		rec.Next(&a)
		ref.Next(&b)
		if a != b {
			t.Fatalf("tee changed the stream at %d", i)
		}
	}
	rec.Extend(100)
	if rec.Recorded() != 600 {
		t.Fatalf("recorded %d, want 600", rec.Recorded())
	}
	tr := rec.Trace(Meta{Name: "swim", SourceKind: SourceBench, SourceID: "swim", Seed: 3})
	if len(tr.Instrs) != 600 {
		t.Fatalf("trace holds %d instructions, want 600", len(tr.Instrs))
	}
	// The recording is the live stream: a fresh generator replays it.
	check, err := workload.New("swim", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Instrs {
		check.Next(&b)
		if tr.Instrs[i] != b {
			t.Fatalf("recorded instruction %d differs from regeneration", i)
		}
	}
	// Trace returned a copy: further recording must not alias it.
	rec.Extend(1)
	if len(tr.Instrs) != 600 {
		t.Fatalf("Trace aliases the recorder buffer")
	}
	rec.Reset()
	if rec.Recorded() != 0 {
		t.Fatalf("Reset kept %d recorded instructions", rec.Recorded())
	}
}
