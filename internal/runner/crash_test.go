package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
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

// TestRetryDelayBounded: the default backoff starts at 100, 200 and 400 ms,
// and over any retry count every delay is positive, non-decreasing and at
// most maxRetryDelay (an uncapped doubling overflows by attempt 38).
func TestRetryDelayBounded(t *testing.T) {
	r := New(1)
	for i, want := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		if got := r.retryDelay(i + 1); got != want {
			t.Fatalf("retryDelay(%d) = %v, want %v", i+1, got, want)
		}
	}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 100; attempt++ {
		d := r.retryDelay(attempt)
		if d <= 0 || d < prev || d > maxRetryDelay {
			t.Fatalf("retryDelay(%d) = %v after %v (cap %v)", attempt, d, prev, maxRetryDelay)
		}
		prev = d
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

// TestCorruptSnapshotRestartsCell: a snapshot that fails a load-side check
// — here its first ROB entry names cluster 99 of 16 — is deleted, and its
// cell restarts from scratch and finishes with the uninterrupted Result.
// Loaded unchecked, it would panic on the next Run, fail the cell for good
// and stay in the directory to fail every resume the same way.
func TestCorruptSnapshotRestartsCell(t *testing.T) {
	dir := t.TempDir()
	q := staticReq("gzip", 16)
	q.Window = 60_000
	ref, err := New(1).RunAll([]Request{q})
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.New(q.Bench, q.Seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(q.Config, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(20_000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	rob := append(binary.LittleEndian.AppendUint64(nil, 0x4b52414d), 3, 0, 0, 0, 0, 0, 0, 0, 'r', 'o', 'b')
	at := bytes.Index(snap, rob)
	if at < 0 {
		t.Fatal("no rob section in the snapshot")
	}
	// The first entry's cluster word follows its instruction (51 bytes)
	// and seq.
	binary.LittleEndian.PutUint64(snap[at+len(rob)+59:], 99)
	path := filepath.Join(dir, keyName(q.key())+".snap")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	r := New(1)
	r.CheckpointDir = dir
	r.CheckpointEvery = 20_000
	rs, err := r.RunAll([]Request{q})
	if err != nil {
		t.Fatalf("the cell failed instead of restarting: %v", err)
	}
	if rs[0] != ref[0] {
		t.Fatalf("restarted result diverges from uninterrupted run:\n  ref:       %+v\n  restarted: %+v", ref[0], rs[0])
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("the corrupt snapshot is still in the checkpoint directory")
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
	if st.Runs != 0 || st.CacheHits != 2 || st.PersistServed != 2 {
		t.Fatalf("resumed sweep re-simulated: %+v", st)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("persisted result %d diverges", i)
		}
	}

	if st.PersistSkipped != 0 {
		t.Fatalf("clean results dir reported %d skipped entries", st.PersistSkipped)
	}

	// A torn file, a foreign name, a non-key .json, a directory and an
	// unreadable key file (a dangling link) are skipped, not fatal, and
	// counted; the good entries still load.
	results := filepath.Join(dir, "results")
	for name, data := range map[string]string{
		"0123456789abcdef.json": "{",
		"notes.txt":             "x",
		"0123.json":             "{}",
	} {
		if err := os.WriteFile(filepath.Join(results, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(results, "fedcba9876543210.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "absent"), filepath.Join(results, "1111111111111111.json")); err != nil {
		t.Fatal(err)
	}
	r3 := New(1)
	r3.CheckpointDir = dir
	n, err = r3.LoadPersisted()
	if err != nil {
		t.Fatalf("torn file broke LoadPersisted: %v", err)
	}
	if skipped := r3.Stats().PersistSkipped; n != 2 || skipped != 5 {
		t.Fatalf("loaded %d, skipped %d; want 2 loaded, 5 skipped", n, skipped)
	}
}

// ReadManifest parses a failure manifest written by WriteManifest.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("runner: manifest %s: %w", path, err)
	}
	return m, nil
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
