package trace

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/rng"
	"clustersim/internal/workload"
)

// -update rewrites testdata/fingerprints.golden from the current code.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenPrefix is how many instructions of each benchmark stream the golden
// pins: the prefix clusterbench fingerprints as a run's input identity.
const goldenPrefix = 1 << 16

// TestFingerprintGolden pins Trace.Fingerprint for every built-in benchmark
// at seeds 1 and 7. The fingerprint keys replayed runs in the runner's
// cache (trace:<fp>) and is stored in every trace file and replay
// snapshot, so its value may never change with its implementation.
// Regenerate with -update only when a stream change is intended.
func TestFingerprintGolden(t *testing.T) {
	var got bytes.Buffer
	for _, bench := range workload.Benchmarks() {
		for _, seed := range []uint64{1, 7} {
			gen, err := workload.New(bench, seed)
			if err != nil {
				t.Fatal(err)
			}
			tr := Record(gen, goldenPrefix, Meta{Name: bench, SourceKind: SourceBench, SourceID: bench, Seed: seed})
			fmt.Fprintf(&got, "%s seed=%d n=%d fingerprint=%016x\n", bench, seed, goldenPrefix, tr.Fingerprint())
		}
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fingerprints diverge from the golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// referenceFingerprint is the fingerprint's definition spelled out with
// hash/fnv: FNV-1a 64 over the length-prefixed Meta strings, the two Meta
// words, the count, and six little-endian words per instruction (PC, class
// with the HasDest/Taken/EndsBlock bits at 8-10, both source distances,
// address, target).
func referenceFingerprint(tr *Trace) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	str := func(s string) { u64(uint64(len(s))); h.Write([]byte(s)) }
	bit := func(b bool, shift uint) uint64 {
		if b {
			return 1 << shift
		}
		return 0
	}
	str(tr.Meta.Name)
	str(tr.Meta.SourceKind)
	str(tr.Meta.SourceID)
	u64(tr.Meta.SourceFP)
	u64(tr.Meta.Seed)
	u64(uint64(len(tr.Instrs)))
	for _, in := range tr.Instrs {
		meta := uint64(in.Class) | bit(in.HasDest, 8) | bit(in.Taken, 9) | bit(in.EndsBlock, 10)
		for _, w := range [6]uint64{in.PC, meta, uint64(in.SrcDist1), uint64(in.SrcDist2), in.Addr, in.Target} {
			u64(w)
		}
	}
	return h.Sum64()
}

// edgeWords are the words a byte-wise shortcut is most likely to get wrong:
// zero, all ones, the top bit alone, and a single non-zero byte in each of
// the eight positions (low, high and mixed bit patterns).
func edgeWords() []uint64 {
	ws := []uint64{0, math.MaxUint64, 1 << 63}
	for i := 0; i < 8; i++ {
		ws = append(ws, 0x01<<(8*i), 0xa5<<(8*i), 0xff<<(8*i))
	}
	return ws
}

// randomWord draws a word with a random number of significant bytes (0-8),
// so every zero-tail length is exercised.
func randomWord(r *rng.Source) uint64 {
	return r.Uint64() >> (8 * r.Intn(9))
}

// TestFingerprintMatchesReference checks Trace.Fingerprint and
// Packed.Fingerprint against the hash/fnv reference on random
// instructions, on instructions and Meta words built from edgeWords, and
// on Meta strings of every length from 0 to 9.
func TestFingerprintMatchesReference(t *testing.T) {
	r := rng.New(15)
	edges := edgeWords()
	var instrs []isa.Instruction
	for i, w := range edges {
		instrs = append(instrs, isa.Instruction{
			PC: w, Class: isa.Class(w), HasDest: i&1 != 0, Taken: i&2 != 0, EndsBlock: i&4 != 0,
			SrcDist1: uint32(w), SrcDist2: uint32(w >> 32), Addr: w, Target: ^w,
		})
	}
	for i := 0; i < 2000; i++ {
		instrs = append(instrs, isa.Instruction{
			PC: randomWord(r), Class: isa.Class(r.Intn(256)),
			HasDest: r.Intn(2) == 0, Taken: r.Intn(2) == 0, EndsBlock: r.Intn(2) == 0,
			SrcDist1: uint32(randomWord(r)), SrcDist2: uint32(randomWord(r)),
			Addr: randomWord(r), Target: randomWord(r),
		})
	}
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	}
	for n := 0; n <= 9; n++ {
		for _, w := range []uint64{edges[n], randomWord(r)} {
			lo := r.Intn(len(instrs))
			tr := &Trace{
				Meta:   Meta{Name: str(n), SourceKind: str(n), SourceID: str(9 - n), SourceFP: w, Seed: ^w},
				Instrs: instrs[lo : lo+r.Intn(len(instrs)-lo+1)],
			}
			want := referenceFingerprint(tr)
			if got := tr.Fingerprint(); got != want {
				t.Fatalf("strings of length %d, %d instructions: Trace.Fingerprint %016x, reference %016x", n, len(tr.Instrs), got, want)
			}
			if got := tr.Pack().Fingerprint(); got != want {
				t.Fatalf("strings of length %d, %d instructions: Packed.Fingerprint %016x, reference %016x", n, len(tr.Instrs), got, want)
			}
		}
	}
	// Every instruction on its own, so each edge word is the whole payload.
	for i := range instrs[:len(edges)] {
		tr := &Trace{Meta: Meta{Name: "edge"}, Instrs: instrs[i : i+1]}
		if got, want := tr.Fingerprint(), referenceFingerprint(tr); got != want {
			t.Fatalf("edge instruction %+v: fingerprint %016x, reference %016x", instrs[i], got, want)
		}
	}
}

// fingerprintSink keeps BenchmarkFingerprint's result live.
var fingerprintSink uint64

// BenchmarkFingerprint hashes the goldenPrefix of gzip, the work
// clusterbench's set-up does per benchmark; CI fails on any non-zero
// allocs/op.
func BenchmarkFingerprint(b *testing.B) {
	gen, err := workload.New("gzip", 1)
	if err != nil {
		b.Fatal(err)
	}
	tr := Record(gen, goldenPrefix, Meta{Name: "gzip", SourceKind: SourceBench, SourceID: "gzip", Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = tr.Fingerprint()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*goldenPrefix), "ns/instr")
}
