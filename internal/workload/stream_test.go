package workload_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/spec"
	"clustersim/internal/workload"
)

// -update rewrites testdata/streams.golden from the current generators.
var update = flag.Bool("update", false, "rewrite golden files")

// streamSeeds are the seeds every benchmark stream is pinned at.
var streamSeeds = []uint64{1, 7}

// cycleLength is one full phase cycle of the checked-in benchmark spec: the
// sum of its phase lengths. Draining that much (plus a margin that wraps
// into the next cycle) enters every phase of the program at least once.
func cycleLength(t *testing.T, bench string) uint64 {
	t.Helper()
	s, err := spec.LoadFile(filepath.Join("..", "..", "specs", bench+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, p := range s.Phases {
		rep := uint64(max(p.Repeat, 1))
		n += rep * uint64(p.Length.Value)
	}
	return n
}

// streamHash drains n instructions from gen and returns the FNV-1a 64 hash
// of every Instruction field, each in fixed-width little-endian form.
func streamHash(gen workload.Generator, n uint64) uint64 {
	h := fnv.New64a()
	var in isa.Instruction
	var buf [36]byte
	b2u := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for i := uint64(0); i < n; i++ {
		gen.Next(&in)
		binary.LittleEndian.PutUint64(buf[0:], in.PC)
		buf[8] = byte(in.Class)
		binary.LittleEndian.PutUint32(buf[9:], in.SrcDist1)
		binary.LittleEndian.PutUint32(buf[13:], in.SrcDist2)
		buf[17] = b2u(in.HasDest)
		binary.LittleEndian.PutUint64(buf[18:], in.Addr)
		buf[26] = b2u(in.Taken)
		binary.LittleEndian.PutUint64(buf[27:], in.Target)
		buf[35] = b2u(in.EndsBlock)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestStreamGolden pins every benchmark's instruction stream, over one full
// phase cycle at each of streamSeeds, to a checked-in hash. The nine
// benchmarks are their spec files: editing specs/<bench>.json changes the
// benchmark, and this test is what notices. Regenerate with -update only
// when a stream change is intended.
func TestStreamGolden(t *testing.T) {
	var got bytes.Buffer
	for _, bench := range workload.Benchmarks() {
		n := cycleLength(t, bench) + 4096
		for _, seed := range streamSeeds {
			gen, err := workload.New(bench, seed)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s seed=%d n=%d fnv64a=%016x\n", bench, seed, n, streamHash(gen, n))
		}
	}
	path := filepath.Join("testdata", "streams.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("benchmark streams diverge from the golden (run with -update only if the change is intended):\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
