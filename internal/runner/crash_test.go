package runner

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clustersim/internal/pipeline"
)

// namedController is a stub controller with an arbitrary Name, for key tests.
type namedController struct{ name string }

func (c *namedController) Name() string                      { return c.name }
func (c *namedController) Reset(int)                         {}
func (c *namedController) OnCommit(pipeline.CommitEvent) int { return 0 }

// panicAfterController panics once its commit count crosses a threshold —
// the injected fault for isolation tests.
type panicAfterController struct {
	n     int
	after int
}

func (c *panicAfterController) Name() string { return "panic-after" }
func (c *panicAfterController) Reset(int)    { c.n = 0 }
func (c *panicAfterController) OnCommit(pipeline.CommitEvent) int {
	c.n++
	if c.n > c.after {
		panic("injected controller fault")
	}
	return 0
}

// TestKeyFieldBoundaryCollision is the regression test for separator-joined
// fingerprints: PolicyKey and SourceKey are adjacent free-form fields, so
// joining them with '|' would let bytes shift across the boundary and alias
// a different request. With length-prefixed fields the two requests below
// — identical joined strings "policy:a|b|trace:c" — must hash differently.
func TestKeyFieldBoundaryCollision(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	a := Request{Bench: "gzip", Seed: 1, Window: 1000, Config: cfg,
		PolicyKey: "policy:a|b", SourceKey: "trace:c"}
	b := Request{Bench: "gzip", Seed: 1, Window: 1000, Config: cfg,
		PolicyKey: "policy:a", SourceKey: "b|trace:c"}
	if a.key() == b.key() {
		t.Fatal("field-boundary collision: distinct requests share a fingerprint")
	}

	// Same aliasing family across bench/seed digits: "gzip" + seed 11 vs
	// hypothetical boundary shifts must also discriminate.
	c := Request{Bench: "gzip", Seed: 11, Window: 100, Config: cfg}
	d := Request{Bench: "gzip1", Seed: 1, Window: 100, Config: cfg}
	if c.key() == d.key() {
		t.Fatal("bench/seed boundary collision")
	}
}

// TestPanicIsolation: an injected panic in one run fails that run with a
// stack dump in its RunError while the rest of the sweep completes and
// reports results — partial-result salvage.
func TestPanicIsolation(t *testing.T) {
	reqs := []Request{
		staticReq("gzip", 4),
		{ID: "faulty", Bench: "gzip", Seed: 1, Window: testWindow,
			Config: pipeline.DefaultConfig(), Controller: &panicAfterController{after: 500}},
		staticReq("swim", 4),
	}
	rs, err := New(2).RunAll(reqs)
	if err == nil {
		t.Fatal("expected sweep error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("want *SweepError, got %T", err)
	}
	if len(se.Failures) != 1 || se.Total != 3 {
		t.Fatalf("failures: %+v", se)
	}
	f := se.Failures[0]
	if f.ID != "faulty" || !strings.Contains(f.Message, "injected controller fault") {
		t.Fatalf("wrong failure: %+v", f)
	}
	if !strings.Contains(f.Dump, "panicAfterController") {
		t.Fatalf("dump does not carry the panic stack: %q", f.Dump)
	}
	if f.Transient || f.Attempts != 1 {
		t.Fatalf("panic misclassified: transient=%t attempts=%d", f.Transient, f.Attempts)
	}
	if rs[0].Instructions < testWindow || rs[2].Instructions < testWindow {
		t.Fatal("healthy runs lost their results")
	}
}

// TestDeadlockBecomesManifestEntry: a watchdog deadlock is a permanent
// failure carrying the machine-state dump.
func TestDeadlockBecomesManifestEntry(t *testing.T) {
	q := staticReq("gzip", 4)
	q.Config.WatchdogCycles = 1 // fires during pipeline fill
	_, err := New(1).RunAll([]Request{q})
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("want one failure, got %v", err)
	}
	f := se.Failures[0]
	if !strings.Contains(f.Message, "no commit in") || !strings.Contains(f.Dump, "headSeq=") {
		t.Fatalf("deadlock record incomplete: %+v", f)
	}
	if f.Transient {
		t.Fatal("deadlock marked transient")
	}
	var de *pipeline.DeadlockError
	if !errors.As(f.Err, &de) {
		t.Fatalf("underlying error lost: %T", f.Err)
	}
}

// TestTimeoutRetries: a run that cannot finish inside Timeout fails as
// transient after Retries+1 attempts.
func TestTimeoutRetries(t *testing.T) {
	r := New(1)
	r.Timeout = time.Millisecond
	r.Retries = 2
	r.Backoff = time.Microsecond
	q := staticReq("gzip", 16)
	q.Window = 50_000_000 // far beyond a millisecond of simulation
	_, err := r.RunAll([]Request{q})
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("want one failure, got %v", err)
	}
	f := se.Failures[0]
	if !f.Transient {
		t.Fatalf("timeout not transient: %+v", f)
	}
	if f.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", f.Attempts)
	}
	var stopped *pipeline.StoppedError
	if !errors.As(f.Err, &stopped) {
		t.Fatalf("underlying error %T, want *StoppedError", f.Err)
	}
}

// TestCheckpointResumeThroughRunner: a sweep interrupted mid-run (here by a
// wall-clock timeout) leaves a snapshot behind; a second runner pointed at
// the same checkpoint directory finishes the run from the snapshot, and the
// final Result is byte-identical to an uninterrupted simulation. On success
// the snapshot is deleted and the Result persisted for resume.
func TestCheckpointResumeThroughRunner(t *testing.T) {
	dir := t.TempDir()
	q := staticReq("gzip", 16)
	q.Window = 400_000

	// Reference: uninterrupted run, no checkpointing anywhere.
	ref, err := New(1).RunAll([]Request{q})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: checkpoint every 20K commits, give up after ~80ms.
	r1 := New(1)
	r1.CheckpointDir = dir
	r1.CheckpointEvery = 20_000
	r1.Timeout = 80 * time.Millisecond
	_, err = r1.RunAll([]Request{q})
	if err == nil {
		// Machine fast enough to finish inside the timeout: the resume
		// path below still exercises load-no-snapshot, but say so.
		t.Log("run finished inside the timeout; resume path starts fresh")
	}

	// Resumed: same directory, no timeout.
	r2 := New(1)
	r2.CheckpointDir = dir
	r2.CheckpointEvery = 20_000
	rs, err := r2.RunAll([]Request{q})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != ref[0] {
		t.Fatalf("resumed result diverges from uninterrupted run:\n  ref:     %+v\n  resumed: %+v", ref[0], rs[0])
	}

	key := q.key()
	if _, err := os.Stat(filepath.Join(dir, keyName(key)+".snap")); !os.IsNotExist(err) {
		t.Error("snapshot not cleaned up after success")
	}
	if _, err := os.Stat(filepath.Join(dir, "results", keyName(key)+".json")); err != nil {
		t.Errorf("result not persisted: %v", err)
	}
}

// TestLoadPersisted: a fresh runner preloads persisted results and serves
// the whole sweep from cache without simulating anything.
func TestLoadPersisted(t *testing.T) {
	dir := t.TempDir()
	batch := func() []Request {
		a := staticReq("gzip", 4)
		b := staticReq("swim", 8)
		return []Request{a, b}
	}

	r1 := New(2)
	r1.CheckpointDir = dir
	first, err := r1.RunAll(batch())
	if err != nil {
		t.Fatal(err)
	}

	r2 := New(2)
	r2.CheckpointDir = dir
	n, err := r2.LoadPersisted()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d persisted results, want 2", n)
	}
	second, err := r2.RunAll(batch())
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.Runs != 0 || st.CacheHits != 2 {
		t.Fatalf("resumed sweep re-simulated: %+v", st)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("persisted result %d diverges", i)
		}
	}

	// Torn files are skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "results", "0123456789abcdef.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := New(1)
	r3.CheckpointDir = dir
	if _, err := r3.LoadPersisted(); err != nil {
		t.Fatalf("torn file broke LoadPersisted: %v", err)
	}
}

// TestManifestRoundTrip: WriteManifest/ReadManifest preserve every field a
// post-mortem needs.
func TestManifestRoundTrip(t *testing.T) {
	q := staticReq("gzip", 4)
	q.Config.WatchdogCycles = 1
	_, err := New(1).RunAll([]Request{q, staticReq("swim", 4)})
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("want sweep error, got %v", err)
	}
	path := filepath.Join(t.TempDir(), "failures.json")
	if err := se.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 2 || len(m.Failures) != 1 {
		t.Fatalf("manifest: %+v", m)
	}
	f := m.Failures[0]
	if f.Bench != "gzip" || f.Message == "" || f.Dump == "" || f.Key == "" {
		t.Fatalf("manifest entry incomplete: %+v", f)
	}
}
