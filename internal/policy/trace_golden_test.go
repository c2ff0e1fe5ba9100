package policy

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// -update rewrites testdata/decision_trace.golden from the current code.
var update = flag.Bool("update", false, "rewrite golden files")

// TestDecisionTraceGolden pins the decision-trace file format byte for
// byte: the length and FNV-64a of Write's bytes for a distant-ILP trace
// over a synthetic commit stream. Regenerate with -update only when a
// format change is intended, and bump traceVersion with it.
func TestDecisionTraceGolden(t *testing.T) {
	spec, err := Paper("distant-ilp")
	if err != nil {
		t.Fatal(err)
	}
	trace := recordSynthetic(t, spec, synthEvents(5_000, 3))
	trace.ConfigFP = 0xdeadbeef
	var buf bytes.Buffer
	if err := trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	got := fmt.Sprintf("distant-ilp synthetic-5000 decisions=%d %d %016x\n", len(trace.Decisions), buf.Len(), h.Sum64())
	path := filepath.Join("testdata", "decision_trace.golden")
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
		t.Fatalf("decision trace diverges from the golden:\n  got:  %s  want: %s", got, want)
	}
}
