package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/snap"
	"clustersim/internal/workload"
)

// drain replays p to the end.
func drain(p *Packed) []isa.Instruction {
	rp := p.Replayer()
	out := make([]isa.Instruction, 0, p.Len)
	for rp.Remaining() > 0 {
		var in isa.Instruction
		rp.Next(&in)
		out = append(out, in)
	}
	return out
}

// samePacked asserts p replays exactly tr's instructions under tr's
// identity and fingerprint.
func samePacked(t *testing.T, tr *Trace, p *Packed) {
	t.Helper()
	if p.Meta != tr.Meta || p.Len != len(tr.Instrs) {
		t.Fatalf("packed identity %+v/%d, want %+v/%d", p.Meta, p.Len, tr.Meta, len(tr.Instrs))
	}
	got := drain(p)
	for i := range tr.Instrs {
		if got[i] != tr.Instrs[i] {
			t.Fatalf("instruction %d: packed replay %+v, want %+v", i, got[i], tr.Instrs[i])
		}
	}
	if p.Fingerprint() != tr.Fingerprint() {
		t.Fatalf("packed fingerprint %016x, want %016x", p.Fingerprint(), tr.Fingerprint())
	}
}

// TestPackedRoundTripEdgeCases packs the values the generators never emit
// but the encoding must still carry: backwards and wrapping PCs, zero
// addresses between non-zero ones, zero targets, extreme 64- and 32-bit
// fields, classes beyond isa.NumClasses, and degenerate lengths.
func TestPackedRoundTripEdgeCases(t *testing.T) {
	const max64, max32 = math.MaxUint64, math.MaxUint32
	var everyClass []isa.Instruction
	for c := 0; c <= math.MaxUint8; c++ {
		everyClass = append(everyClass, isa.Instruction{
			PC: uint64(c) * 4, Class: isa.Class(c),
			HasDest: c&1 != 0, Taken: c&2 != 0, EndsBlock: c&4 != 0,
		})
	}
	cases := []struct {
		name   string
		instrs []isa.Instruction
	}{
		{"empty", nil},
		{"one instruction", []isa.Instruction{{PC: 0x400000, Class: isa.IntALU, HasDest: true, SrcDist1: 3}}},
		{"pc jumps backwards", []isa.Instruction{
			{PC: 0x1000}, {PC: 0x0ff0}, {PC: 0x0ff4}, {PC: 4}, {PC: 0}, {PC: 4},
		}},
		{"load with addr 0", []isa.Instruction{
			{PC: 0x10, Class: isa.Load, HasDest: true, Addr: 0x8000},
			{PC: 0x14, Class: isa.Load, HasDest: true, Addr: 0},
			{PC: 0x18, Class: isa.Store, Addr: 0x7ff8},
			{PC: 0x1c, Class: isa.Load, Addr: 0x8000},
		}},
		{"taken branch with target 0", []isa.Instruction{
			{PC: 0x100, Class: isa.Branch, Taken: true, EndsBlock: true, Target: 0},
			{PC: 0, Class: isa.Call, Taken: true, EndsBlock: true, Target: 0x100},
		}},
		{"max uint64 fields", []isa.Instruction{
			{PC: max64, Class: isa.Load, Addr: max64, Target: max64},
			{PC: 3, Class: isa.Return, Addr: 1, Target: max64},
			{PC: max64 - 3, Addr: max64, Target: 1},
			{PC: max64 + 1 - 4, Target: max64},
		}},
		{"max source distances", []isa.Instruction{
			{PC: 8, SrcDist1: max32, SrcDist2: max32},
			{PC: 12, SrcDist1: 0, SrcDist2: max32},
			{PC: 16, SrcDist1: max32},
		}},
		{"every class byte and flag", everyClass},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{Meta: Meta{Name: c.name, SourceKind: SourceCustom, Seed: 9}, Instrs: c.instrs}
			samePacked(t, tr, tr.Pack())
		})
	}
}

// TestPackedRealTraces: packing is lossless on every built-in benchmark's
// stream, the file's payload is exactly the packed form, and both the
// in-memory and the on-disk cost stay near 4 bytes per instruction.
func TestPackedRealTraces(t *testing.T) {
	const n = 20_000
	dir := t.TempDir()
	var packedBytes, instrs int
	for _, bench := range workload.Benchmarks() {
		meta := Meta{Name: bench, SourceKind: SourceBench, SourceID: bench, Seed: 1}
		header := len(encode(t, &Trace{Meta: meta}))
		gen, err := workload.New(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := Record(gen, n, meta)
		p := tr.Pack()
		samePacked(t, tr, p)
		path := filepath.Join(dir, bench+".trace")
		if err := WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		fromFile, err := ReadPackedFile(path)
		if err != nil {
			t.Fatalf("ReadPackedFile: %v", err)
		}
		samePacked(t, tr, fromFile)
		if !bytes.Equal(fromFile.data, p.data) {
			t.Fatalf("%s: file-loaded packing differs from Pack", bench)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if limit := 4.5*n + float64(header); float64(st.Size()) > limit {
			t.Fatalf("%s: %d-instruction file takes %d bytes, want <= %.0f (4.5 B/instr + header)", bench, n, st.Size(), limit)
		}
		packedBytes += len(p.data)
		instrs += n
	}
	if perInstr := float64(packedBytes) / float64(instrs); perInstr > 4.5 {
		t.Fatalf("packed traces take %.2f B/instr, want <= 4.5", perInstr)
	}
}

// TestRecordFile: the streaming recorder writes exactly the file that
// Record followed by WriteFile writes, and returns its header.
func TestRecordFile(t *testing.T) {
	const n = 5000
	meta := Meta{Name: "vpr", SourceKind: SourceBench, SourceID: "vpr", Seed: 7}
	dir := t.TempDir()
	gen, err := workload.New("vpr", 7)
	if err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "streamed.trace")
	h, err := RecordFile(streamed, gen, n, meta)
	if err != nil {
		t.Fatalf("RecordFile: %v", err)
	}
	gen, err = workload.New("vpr", 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(gen, n, meta)
	decoded := filepath.Join(dir, "decoded.trace")
	if err := WriteFile(decoded, tr); err != nil {
		t.Fatal(err)
	}
	if want := (Header{Meta: meta, Count: n, Fingerprint: tr.Fingerprint()}); h != want {
		t.Fatalf("RecordFile header %+v, want %+v", h, want)
	}
	a, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("RecordFile wrote %d bytes that differ from WriteFile(Record)'s %d", len(a), len(b))
	}
	if _, err := RecordFile(filepath.Join(dir, "absent", "x.trace"), gen, 1, meta); err == nil {
		t.Fatalf("RecordFile into a missing directory succeeded")
	}
}

func TestReadPackedFileMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.trace")
	_, rerr := ReadFile(path)
	_, perr := ReadPackedFile(path)
	_, herr := PeekHeader(path)
	for _, err := range []error{rerr, perr, herr} {
		if err == nil || !strings.Contains(err.Error(), "trace:") {
			t.Fatalf("missing file: got %v", err)
		}
	}
}

// TestReplayerLoadStateEveryCursor restores a snapshot taken at every
// cursor position into a fresh replayer, whose next instruction must be the
// recorded one: the derived decoder state is rebuilt exactly.
func TestReplayerLoadStateEveryCursor(t *testing.T) {
	const n = 96
	tr := record(t, n)
	p := tr.Pack()
	src := p.Replayer()
	for k := 0; k <= n; k++ {
		var buf bytes.Buffer
		sv := snap.NewSaver(&buf)
		src.State(sv)
		if err := sv.Flush(); err != nil {
			t.Fatal(err)
		}
		fresh := p.Replayer()
		ld := snap.NewLoader(bytes.NewReader(buf.Bytes()))
		fresh.State(ld)
		if err := ld.Err(); err != nil {
			t.Fatalf("load at %d: %v", k, err)
		}
		if fresh.Remaining() != n-k {
			t.Fatalf("cursor %d: remaining %d, want %d", k, fresh.Remaining(), n-k)
		}
		if k == n {
			break
		}
		var got, step isa.Instruction
		fresh.Next(&got)
		src.Next(&step)
		if got != tr.Instrs[k] || step != tr.Instrs[k] {
			t.Fatalf("cursor %d: restored replay yields %+v, want %+v", k, got, tr.Instrs[k])
		}
	}
}

// TestReplayerNextAllocatesNothing: replay sits on the simulator's fetch
// path, so decoding may not allocate.
func TestReplayerNextAllocatesNothing(t *testing.T) {
	p := record(t, 4096).Pack()
	rp := p.Replayer()
	var in isa.Instruction
	allocs := testing.AllocsPerRun(1000, func() {
		if rp.Remaining() == 0 {
			rp.Reset()
		}
		rp.Next(&in)
	})
	if allocs != 0 {
		t.Fatalf("Replayer.Next allocates %.1f times per call", allocs)
	}
}

// BenchmarkReplayerNext measures decoding one packed instruction; CI fails
// on any non-zero allocs/op.
func BenchmarkReplayerNext(b *testing.B) {
	gen, err := workload.New("gzip", 1)
	if err != nil {
		b.Fatal(err)
	}
	p := Record(gen, 1<<16, Meta{Name: "gzip"}).Pack()
	rp := p.Replayer()
	var in isa.Instruction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rp.Remaining() == 0 {
			rp.Reset()
		}
		rp.Next(&in)
	}
}
