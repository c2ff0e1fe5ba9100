package policy

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const policySpecsDir = "../../specs/policy"

// TestShippedSpecsLoad keeps every checked-in policy spec parseable and
// buildable: specs/policy is user-facing documentation, so a format change
// that orphans one is a test failure, not a runtime surprise.
func TestShippedSpecsLoad(t *testing.T) {
	entries, err := os.ReadDir(policySpecsDir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(policySpecsDir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) < 4 {
		t.Fatalf("expected at least 4 shipped policy specs, found %d", len(paths))
	}
	fps := make(map[uint64]string, len(paths))
	for _, path := range paths {
		s, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Doc == "" {
			t.Errorf("%s: shipped specs must carry a doc string", path)
		}
		ctrl := controllerOf(t, s)
		if ctrl.Name() == "" {
			t.Fatalf("%s: empty controller name", path)
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := fps[fp]; dup {
			t.Errorf("%s and %s share fingerprint %016x", prev, path, fp)
		}
		fps[fp] = path
	}
}

// TestSpecFingerprintsPinned pins the fingerprints of the shipped spec
// files and the paper's built-in specs. They name cache keys, persisted
// Results and leaderboard rows across builds, so a change to the canonical
// form that moves one must be deliberate.
func TestSpecFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		spec string // a file under specs/policy, or a Paper name
		fp   uint64
	}{
		{"dilp-1k.json", 0xd8dfad288197e618},
		{"explore-default.json", 0x0708f0fc07da74f9},
		{"fg-branch.json", 0xdb5ffa76d0ece669},
		{"fg-window540.json", 0xac3f3fcbee58bd48},
		{"explore", 0x178ae0b9affe4fe0},
		{"distant-ilp", 0x9be098cc6772212e},
		{"fine-grain", 0x66d888aa2f5ed3cd},
		{"fine-grain-cr", 0x52f70f12d8ce2142},
		{"static-4", 0x6f5edabf20d01752},
		{"static-16", 0x838b55c29cdb80e4},
	} {
		var s *Spec
		var err error
		if strings.HasSuffix(tc.spec, ".json") {
			s, err = LoadFile(filepath.Join(policySpecsDir, tc.spec))
		} else {
			s, err = Paper(tc.spec)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if fp != tc.fp {
			t.Errorf("%s: fingerprint %016x, pinned %016x", tc.spec, fp, tc.fp)
		}
	}
}
