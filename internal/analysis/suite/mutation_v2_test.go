package suite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/analysis"
	"clustersim/internal/analysis/passes/cachekey"
	"clustersim/internal/analysis/passes/errflow"
	"clustersim/internal/analysis/passes/hotalloc"
	"clustersim/internal/analysis/passes/syncsafety"
)

// The v2 mutation tests mirror TestMutationUnserializedFieldIsCaught for the
// dataflow-aware passes: each copies the real packages into a scratch module,
// confirms the pristine copy is clean, injects the exact defect the pass
// exists to catch, and asserts the pass reports it. Together they prove the
// CI gate is live — a regression in any pass makes its mutant survive and
// the test fail.

// runnerClosure is every clustersim package reachable from internal/runner;
// copying it makes the scratch module self-contained for the from-source
// loader.
var runnerClosure = []string{
	"internal/snap", "internal/bpred", "internal/interconnect", "internal/isa",
	"internal/mem", "internal/obs", "internal/telemetry", "internal/rng",
	"internal/workload", "internal/workload/engine", "internal/spec", "specs",
	"internal/pipeline", "internal/runner",
}

// scratchRunnerModule copies go.mod plus the runner closure into a temp
// module and returns its root.
func scratchRunnerModule(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	copyFile(t, "../../../go.mod", filepath.Join(root, "go.mod"))
	for _, pkg := range runnerClosure {
		copyPackage(t, filepath.Join("../../..", pkg), filepath.Join(root, pkg))
	}
	return root
}

// runPass loads pattern inside root and runs one analyzer over it.
func runPass(t *testing.T, root, pattern string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	l, err := analysis.NewLoader(root, false)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	units, err := l.Load(pattern)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := analysis.Run(units, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return diags
}

// mutate rewrites one occurrence of anchor in file to replacement.
func mutate(t *testing.T, file, anchor, replacement string) {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("anchor %q not found in %s", anchor, file)
	}
	if err := os.WriteFile(file,
		[]byte(strings.Replace(string(src), anchor, replacement, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// expectOnly asserts every diagnostic comes from analyzer and mentions want,
// and that at least one was reported.
func expectOnly(t *testing.T, diags []analysis.Diagnostic, analyzer, want string) {
	t.Helper()
	if len(diags) == 0 {
		t.Fatalf("%s did not report the injected defect (want mention of %q)", analyzer, want)
	}
	for _, d := range diags {
		if d.Analyzer != analyzer || !strings.Contains(d.Message, want) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestMutationUnfingerprintedConfigField proves cachekey guards the cache-key
// surface from both directions: adding a Config field without a fingerprint
// fold, and deleting the fold of an existing field, each fail the gate.
func TestMutationUnfingerprintedConfigField(t *testing.T) {
	root := scratchRunnerModule(t)
	if diags := runPass(t, root, "./internal/pipeline", cachekey.Analyzer); len(diags) != 0 {
		t.Fatalf("pristine copy is not clean: %v", diags)
	}

	target := filepath.Join(root, "internal/pipeline/config.go")
	pristine, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}

	// Direction 1: a new field the fingerprint does not fold.
	mutate(t, target, "type Config struct {", "type Config struct {\n\tMutantWidth int")
	expectOnly(t, runPass(t, root, "./internal/pipeline", cachekey.Analyzer),
		"cachekey", "Config.MutantWidth")

	// Direction 2: an existing field whose fold is deleted.
	if err := os.WriteFile(target, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	mutate(t, target, "\tfold(uint64(c.ModN))\n", "")
	expectOnly(t, runPass(t, root, "./internal/pipeline", cachekey.Analyzer),
		"cachekey", "Config.ModN")
}

// TestMutationHotPathAllocation injects a composite-literal allocation into
// the processor's per-cycle step function and asserts hotalloc reports it.
func TestMutationHotPathAllocation(t *testing.T) {
	root := scratchRunnerModule(t)
	if diags := runPass(t, root, "./internal/pipeline", hotalloc.Analyzer); len(diags) != 0 {
		t.Fatalf("pristine copy is not clean: %v", diags)
	}

	mutate(t, filepath.Join(root, "internal/pipeline/processor.go"),
		"\tp.progress = false\n",
		"\tp.progress = false\n\tmutantScratch := []int{1, 2, 3}\n\t_ = mutantScratch\n")
	expectOnly(t, runPass(t, root, "./internal/pipeline", hotalloc.Analyzer),
		"hotalloc", "composite-literal allocation in hot function step")
}

// TestMutationPlainAtomicRead injects a lock-free read of a mutex-guarded
// Runner counter and asserts syncsafety reports the mixed-access pair.
func TestMutationPlainAtomicRead(t *testing.T) {
	root := scratchRunnerModule(t)
	if diags := runPass(t, root, "./internal/runner", syncsafety.Analyzer); len(diags) != 0 {
		t.Fatalf("pristine copy is not clean: %v", diags)
	}

	mutate(t, filepath.Join(root, "internal/runner/runner.go"),
		"// New returns a Runner",
		"func (r *Runner) mutantPeek() bool { return r.stats.Runs != 0 }\n\n// New returns a Runner")
	expectOnly(t, runPass(t, root, "./internal/runner", syncsafety.Analyzer),
		"syncsafety", "plain access to field Runs in mutantPeek")
}

// TestMutationDroppedError injects a call site that discards the error from
// pipeline.Processor.Run and asserts errflow reports it.
func TestMutationDroppedError(t *testing.T) {
	root := scratchRunnerModule(t)
	if diags := runPass(t, root, "./internal/runner", errflow.Analyzer); len(diags) != 0 {
		t.Fatalf("pristine copy is not clean: %v", diags)
	}

	mutate(t, filepath.Join(root, "internal/runner/runner.go"),
		"// New returns a Runner",
		"func mutantWarm(p *pipeline.Processor) { p.Run(1) }\n\n// New returns a Runner")
	expectOnly(t, runPass(t, root, "./internal/runner", errflow.Analyzer),
		"errflow", "Run")
}
