package workload

import (
	"bytes"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"

	"clustersim/internal/spec"
	"clustersim/specs"
)

// blockStride is the PC space the generator engine gives each basic block.
const blockStride = 1 << 13

// sortedKeys returns a map's keys in sorted order so test sweeps iterate
// (and report failures) deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestEmbeddedSpecsCanonical: every embedded benchmark spec is stored in
// canonical form (Serialize(Parse(b)) == b, so its file bytes are exactly
// what Fingerprint hashes), is named after its file, and the embedded set
// is exactly the benchmarks with published paper data.
func TestEmbeddedSpecsCanonical(t *testing.T) {
	files, err := fs.Glob(specs.Benchmarks, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		data, err := specs.Benchmarks.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := spec.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		canon, err := s.Serialize()
		if err != nil {
			t.Fatalf("%s: Serialize: %v", f, err)
		}
		if !bytes.Equal(canon, data) {
			t.Errorf("%s is not in canonical form:\n%s", f, canon)
		}
		if want := strings.TrimSuffix(f, ".json"); s.Name != want {
			t.Errorf("%s names benchmark %q, want %q", f, s.Name, want)
		}
		names = append(names, s.Name)
	}
	if want := sortedKeys(paperData); !reflect.DeepEqual(names, want) {
		t.Errorf("embedded benchmarks %v, paper data for %v", names, want)
	}
	if got := Benchmarks(); !reflect.DeepEqual(got, names) {
		t.Errorf("Benchmarks() = %v, embedded %v", got, names)
	}
}

// TestProgramDefinitionsSane validates every benchmark's kernel parameters
// structurally, so a mistyped constant fails fast rather than producing a
// silently miscalibrated program.
func TestProgramDefinitionsSane(t *testing.T) {
	for _, name := range Benchmarks() {
		s, err := spec.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Errorf("%s: spec name field %q mismatched", name, s.Name)
		}
		if len(s.Phases) == 0 {
			t.Errorf("%s: no phases", name)
			continue
		}
		for _, ph := range s.Phases {
			k := ph.Profile
			ctx := name + "/" + ph.Name
			if !ph.Length.IsConst() || !k.Chains.IsConst() || ph.Repeat != 0 {
				t.Errorf("%s: benchmark phases must be constant and unrepeated", ctx)
			}
			if ph.Length.Value <= 0 {
				t.Errorf("%s: non-positive phase length", ctx)
			}
			if chains := k.Chains.Value; chains < 1 || chains > 64 {
				t.Errorf("%s: chains %v outside [1,64] (plausible rename width)", ctx, chains)
			}
			if sum := k.LoadFrac + k.StoreFrac + k.BranchFrac; sum >= 0.9 {
				t.Errorf("%s: class fractions sum to %.2f, leaving no arithmetic", ctx, sum)
			}
			if k.LoopBody < 4 || k.LoopBody > 1024 {
				t.Errorf("%s: LoopBody %d out of range", ctx, k.LoopBody)
			}
			if k.LoopIters < 2 {
				t.Errorf("%s: LoopIters %d", ctx, k.LoopIters)
			}
			if k.IterJitter >= k.LoopIters {
				t.Errorf("%s: jitter %d >= iters %d", ctx, k.IterJitter, k.LoopIters)
			}
			if !k.RandomAddr && k.Stride <= 0 {
				t.Errorf("%s: strided kernel with stride %d", ctx, k.Stride)
			}
			if k.Footprint <= 0 {
				t.Errorf("%s: footprint %d", ctx, k.Footprint)
			}
			if k.Chase && !k.RandomAddr {
				t.Errorf("%s: chase without random addressing", ctx)
			}
			if k.StaticBlocks < 1 {
				t.Errorf("%s: static blocks %d", ctx, k.StaticBlocks)
			}
			if k.CallEvery > 0 && k.Funcs < 1 {
				t.Errorf("%s: calls configured without functions", ctx)
			}
			// A block must fit its PC region.
			if k.LoopBody*4+16 >= blockStride {
				t.Errorf("%s: block overflows its PC region", ctx)
			}
		}
	}
}

// TestPaperDataSane validates the published-characteristics table.
func TestPaperDataSane(t *testing.T) {
	for _, name := range sortedKeys(paperData) {
		pd := paperData[name]
		if pd.Suite == "" {
			t.Errorf("%s: empty suite", name)
		}
		if pd.BaseIPC <= 0 || pd.BaseIPC > 8 {
			t.Errorf("%s: base IPC %f", name, pd.BaseIPC)
		}
		if pd.MispredictInterval < 10 {
			t.Errorf("%s: mispredict interval %f", name, pd.MispredictInterval)
		}
		if pd.MinStableInterval < 10_000 {
			t.Errorf("%s: min stable interval %f", name, pd.MinStableInterval)
		}
		if pd.InstabilityAt10K < 0 || pd.InstabilityAt10K > 100 {
			t.Errorf("%s: instability %f", name, pd.InstabilityAt10K)
		}
	}
}
