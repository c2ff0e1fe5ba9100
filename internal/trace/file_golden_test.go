package trace

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceFileGolden pins the trace file format byte for byte: the length
// and FNV-64a of Write's bytes for a 4096-instruction gzip recording.
// Regenerate with -update only when a format change is intended, and bump
// the format version with it.
func TestTraceFileGolden(t *testing.T) {
	data := encode(t, record(t, 4096))
	h := fnv.New64a()
	h.Write(data)
	got := fmt.Sprintf("gzip seed=1 n=4096 %d %016x\n", len(data), h.Sum64())
	path := filepath.Join("testdata", "trace_file.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Fatalf("trace file diverges from the golden:\n  got:  %s  want: %s", got, want)
	}
}
