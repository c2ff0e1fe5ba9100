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
