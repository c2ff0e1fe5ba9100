package spec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/spec"
)

// -update rewrites the malformed-spec error transcript under testdata/.
var update = flag.Bool("update", false, "rewrite golden files")

// roundTripCases are valid spec documents covering every distribution kind
// and both repeat and multi-phase structure. Each must parse, serialize to
// a fixed point, and compile deterministically.
var roundTripCases = []struct {
	name  string
	input string
}{
	{"minimal", `{
		"version": 1, "name": "tiny",
		"phases": [{"length": 1000, "profile": {"chains": 4}}]
	}`},
	{"all-constant-multiphase", `{
		"version": 1, "name": "two-phase", "doc": "a doc string",
		"phases": [
			{"name": "hot", "length": 40000, "profile": {"chains": 12, "load_frac": 0.3, "fp": true, "stride": 8, "footprint": 1048576}},
			{"name": "cold", "length": 9000, "profile": {"chains": 2, "branch_frac": 0.2, "chase": true, "random_addr": true}}
		]
	}`},
	{"uniform-length", `{
		"version": 1, "name": "jittered",
		"phases": [{"length": {"dist": "uniform", "min": 3000, "max": 9000}, "repeat": 8, "profile": {"chains": 6}}]
	}`},
	{"geometric-chains", `{
		"version": 1, "name": "geo",
		"phases": [{"length": 5000, "repeat": 4, "profile": {"chains": {"dist": "geometric", "mean": 8}}}]
	}`},
	{"exponential", `{
		"version": 1, "name": "expo",
		"phases": [{"length": {"dist": "exponential", "mean": 20000}, "repeat": 3, "profile": {"chains": 4}}]
	}`},
	{"poisson", `{
		"version": 1, "name": "poisson",
		"phases": [{"length": 4000, "profile": {"chains": {"dist": "poisson", "mean": 10}}}]
	}`},
	{"gamma-erlang", `{
		"version": 1, "name": "erlang",
		"phases": [{"length": {"dist": "gamma", "shape": 3, "scale": 5000}, "repeat": 2, "profile": {"chains": 4}}]
	}`},
	{"weibull", `{
		"version": 1, "name": "weib",
		"phases": [{"length": {"dist": "weibull", "shape": 1.5, "scale": 8000}, "profile": {"chains": 4}}]
	}`},
	{"mix", `{
		"version": 1, "name": "duo",
		"mix": [
			{"bench": "gzip", "clusters": 8},
			{"name": "inline", "seed_offset": 7, "phases": [{"length": 2000, "profile": {"chains": 3}}]}
		]
	}`},
}

func TestRoundTrip(t *testing.T) {
	for _, c := range roundTripCases {
		t.Run(c.name, func(t *testing.T) {
			s, err := spec.Parse([]byte(c.input))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			out, err := s.Serialize()
			if err != nil {
				t.Fatalf("Serialize: %v", err)
			}
			s2, err := spec.Parse(out)
			if err != nil {
				t.Fatalf("Parse(Serialize): %v\n%s", err, out)
			}
			out2, err := s2.Serialize()
			if err != nil {
				t.Fatalf("second Serialize: %v", err)
			}
			if !bytes.Equal(out, out2) {
				t.Fatalf("serialization is not a fixed point:\nfirst:\n%s\nsecond:\n%s", out, out2)
			}
			fp1, err := s.Fingerprint()
			if err != nil {
				t.Fatalf("Fingerprint: %v", err)
			}
			fp2, _ := s2.Fingerprint()
			if fp1 != fp2 {
				t.Fatalf("fingerprint changed across round trip: %016x vs %016x", fp1, fp2)
			}
			if len(s.Mix) > 0 {
				return // compile determinism for mixes is covered by TestCompileMix
			}
			if !streamsEqual(t, s, s2, 43, 4096) {
				t.Fatalf("round-tripped spec compiles to a different stream")
			}
		})
	}
}

// streamsEqual compiles both specs under seed and compares the first n
// generated instructions.
func streamsEqual(t *testing.T, a, b *spec.Spec, seed uint64, n int) bool {
	t.Helper()
	ga, err := spec.Compile(a, seed)
	if err != nil {
		t.Fatalf("Compile a: %v", err)
	}
	gb, err := spec.Compile(b, seed)
	if err != nil {
		t.Fatalf("Compile b: %v", err)
	}
	var ia, ib isa.Instruction
	for i := 0; i < n; i++ {
		ga.Next(&ia)
		gb.Next(&ib)
		if ia != ib {
			t.Logf("instruction %d differs: %+v vs %+v", i, ia, ib)
			return false
		}
	}
	return true
}

func TestCompileDeterminism(t *testing.T) {
	// A spec with every field distribution-valued must still expand the
	// same way on every compile with the same seed.
	doc := `{
		"version": 1, "name": "dist-heavy",
		"phases": [
			{"length": {"dist": "uniform", "min": 2000, "max": 8000}, "repeat": 16,
			 "profile": {"chains": {"dist": "geometric", "mean": 6}}},
			{"length": {"dist": "gamma", "shape": 4, "scale": 1500}, "repeat": 8,
			 "profile": {"chains": {"dist": "poisson", "mean": 5}}}
		]
	}`
	s, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !streamsEqual(t, s, s, 99, 8192) {
		t.Fatalf("same (spec, seed) compiled to different streams")
	}
}

func TestCompileRejectsMix(t *testing.T) {
	s, err := spec.Parse([]byte(roundTripCases[len(roundTripCases)-1].input))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := spec.Compile(s, 1); err == nil {
		t.Fatalf("Compile accepted a mix spec")
	}
	if _, err := spec.CompileMix(s, 1); err != nil {
		t.Fatalf("CompileMix: %v", err)
	}
}

func TestCompileMix(t *testing.T) {
	s, err := spec.Parse([]byte(roundTripCases[len(roundTripCases)-1].input))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	threads, err := spec.CompileMix(s, 10)
	if err != nil {
		t.Fatalf("CompileMix: %v", err)
	}
	if len(threads) != 2 {
		t.Fatalf("got %d threads, want 2", len(threads))
	}
	if threads[0].Name != "gzip" || threads[0].Seed != 10 || threads[0].Clusters != 8 {
		t.Errorf("thread 0 = %+v, want gzip seed 10 clusters 8", threads[0])
	}
	if threads[1].Name != "inline" || threads[1].Seed != 17 {
		t.Errorf("thread 1 = %+v, want inline seed 17", threads[1])
	}
	// Same mix, same seed: both compiles yield identical streams.
	again, err := spec.CompileMix(s, 10)
	if err != nil {
		t.Fatalf("CompileMix again: %v", err)
	}
	var a, b isa.Instruction
	for i := 0; i < 2048; i++ {
		threads[1].Gen.Next(&a)
		again[1].Gen.Next(&b)
		if a != b {
			t.Fatalf("inline mix thread not deterministic at instruction %d", i)
		}
	}
}

// malformedCases drive the error-message golden: every entry must be
// rejected by Parse, and the exact message is pinned so error quality is a
// tested property, not an accident.
var malformedCases = []struct {
	name  string
	input string
}{
	{"empty", ``},
	{"not-json", `]`},
	{"bad-version", `{"version": 2, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1}}]}`},
	{"missing-name", `{"version": 1, "phases": [{"length": 10, "profile": {"chains": 1}}]}`},
	{"no-program", `{"version": 1, "name": "x"}`},
	{"phases-and-mix", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1}}], "mix": [{"bench": "gzip"}, {"bench": "swim"}]}`},
	{"unknown-top-field", `{"version": 1, "name": "x", "wibble": 3, "phases": [{"length": 10, "profile": {"chains": 1}}]}`},
	{"unknown-profile-field", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1, "wibble": 3}}]}`},
	{"trailing-data", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1}}]} {"more": 1}`},
	{"trailing-brace", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1}}]} }`},
	{"trailing-garbage", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1}}]} xyz`},
	{"zero-length", `{"version": 1, "name": "x", "phases": [{"length": 0, "profile": {"chains": 1}}]}`},
	{"zero-chains", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 0}}]}`},
	{"negative-repeat", `{"version": 1, "name": "x", "phases": [{"length": 10, "repeat": -1, "profile": {"chains": 1}}]}`},
	{"frac-above-one", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1, "load_frac": 1.5}}]}`},
	{"reuse-below-minus-one", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1, "reuse_frac": -2}}]}`},
	{"unknown-dist", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "zipf", "mean": 4}, "profile": {"chains": 1}}]}`},
	{"unknown-dist-field", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "uniform", "min": 1, "max": 2, "sigma": 3}, "profile": {"chains": 1}}]}`},
	{"dist-not-number", `{"version": 1, "name": "x", "phases": [{"length": "large", "profile": {"chains": 1}}]}`},
	{"uniform-min-over-max", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "uniform", "min": 9, "max": 3}, "profile": {"chains": 1}}]}`},
	{"geometric-mean-below-one", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "geometric", "mean": 0.5}, "profile": {"chains": 1}}]}`},
	{"poisson-mean-too-big", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "poisson", "mean": 2000000}, "profile": {"chains": 1}}]}`},
	{"gamma-fractional-shape", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "gamma", "shape": 2.5, "scale": 10}, "profile": {"chains": 1}}]}`},
	{"gamma-shape-too-big", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "gamma", "shape": 65, "scale": 10}, "profile": {"chains": 1}}]}`},
	{"weibull-zero-shape", `{"version": 1, "name": "x", "phases": [{"length": {"dist": "weibull", "shape": 0, "scale": 10}, "profile": {"chains": 1}}]}`},
	{"mix-single-thread", `{"version": 1, "name": "x", "mix": [{"bench": "gzip"}]}`},
	{"mix-bench-and-phases", `{"version": 1, "name": "x", "mix": [{"bench": "gzip"}, {"bench": "swim", "phases": [{"length": 10, "profile": {"chains": 1}}]}]}`},
	{"mix-inline-unnamed", `{"version": 1, "name": "x", "mix": [{"bench": "gzip"}, {"phases": [{"length": 10, "profile": {"chains": 1}}]}]}`},
	{"mix-empty-entry", `{"version": 1, "name": "x", "mix": [{"bench": "gzip"}, {}]}`},
	{"mix-clusters-out-of-range", `{"version": 1, "name": "x", "mix": [{"bench": "gzip"}, {"bench": "swim", "clusters": 17}]}`},
	{"stride-too-large", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1, "stride": 8589934592}}]}`},
	{"negative-footprint", `{"version": 1, "name": "x", "phases": [{"length": 10, "profile": {"chains": 1, "footprint": -1}}]}`},
}

func TestParseErrorsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range malformedCases {
		s, err := spec.Parse([]byte(c.input))
		if err == nil {
			t.Errorf("%s: Parse accepted a malformed spec: %+v", c.name, s)
			continue
		}
		fmt.Fprintf(&buf, "%s: %v\n", c.name, err)
	}
	path := filepath.Join("testdata", "errors.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("error messages diverge from golden (run with -update if intended):\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	if err := os.WriteFile(path, []byte(roundTripCases[0].input), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := spec.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if s.Name != "tiny" {
		t.Fatalf("loaded name %q, want tiny", s.Name)
	}
	if _, err := spec.LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatalf("LoadFile accepted a missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.LoadFile(bad); err == nil {
		t.Fatalf("LoadFile accepted an invalid spec")
	}
}

func TestBuiltin(t *testing.T) {
	names := spec.Builtins()
	if len(names) != 9 {
		t.Fatalf("Builtins() = %v, want the nine benchmarks", names)
	}
	for _, name := range names {
		s, err := spec.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name || len(s.Mix) > 0 {
			t.Errorf("Builtin(%q) = spec %q with %d mix threads, want a single program", name, s.Name, len(s.Mix))
		}
	}
	if _, err := spec.Builtin("doom"); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("Builtin(doom) error = %v, want unknown benchmark", err)
	}
}
