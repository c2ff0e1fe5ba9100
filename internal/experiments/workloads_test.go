package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/spec"
	"clustersim/internal/trace"
)

// loadThrashSpec pulls the checked-in stressor, the non-builtin workload
// the sweep tests bind.
func loadThrashSpec(t *testing.T) *spec.Spec {
	t.Helper()
	s, err := spec.LoadFile(filepath.Join("..", "..", "specs", "phase-thrash.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testOpts is a small sweep: two built-ins plus the thrash spec, minimum
// windows (Scale tiny → 50K floor).
func testOpts(t *testing.T) Options {
	return Options{
		Seed: 1, Scale: 0.001,
		Benchmarks: []string{"gzip", "swim", "phase-thrash"},
		Specs:      map[string]*spec.Spec{"phase-thrash": loadThrashSpec(t)},
	}
}

func TestBenchmarksIncludesSpecs(t *testing.T) {
	o := Options{Specs: map[string]*spec.Spec{"zeta": nil, "alpha": nil, "gzip": nil}}
	got := o.benchmarks()
	// Built-ins first, then non-builtin spec names sorted; a spec shadowing
	// a built-in name must not duplicate the entry.
	counts := map[string]int{}
	for _, b := range got {
		counts[b]++
	}
	if counts["gzip"] != 1 || counts["alpha"] != 1 || counts["zeta"] != 1 {
		t.Fatalf("benchmark set %v", got)
	}
	if got[len(got)-2] != "alpha" || got[len(got)-1] != "zeta" {
		t.Fatalf("spec names not appended in sorted order: %v", got)
	}
}

func TestRecordTracesAndReplaySweep(t *testing.T) {
	dir := t.TempDir()
	o := testOpts(t)

	n, err := RecordTraces(o, dir, 0)
	if err != nil {
		t.Fatalf("RecordTraces: %v", err)
	}
	if n != 3 {
		t.Fatalf("recorded %d traces, want 3", n)
	}
	for _, bench := range o.benchmarks() {
		if _, err := os.Stat(TraceFileName(dir, bench, 1)); err != nil {
			t.Errorf("missing trace for %s: %v", bench, err)
		}
	}

	// Live arm: built-ins generated, phase-thrash spec-compiled.
	build := func(o Options) []runner.Request {
		var reqs []runner.Request
		for _, bench := range o.benchmarks() {
			reqs = append(reqs, o.request("replay-equiv", bench, pipeline.DefaultConfig(), o.Window(bench)))
		}
		return reqs
	}
	liveReqs := build(o)
	live, err := runner.New(2).RunAll(liveReqs)
	if err != nil {
		t.Fatal(err)
	}

	// Replay arm: same cells, streams served from the recorded files.
	ro := o
	ro.ReplayTraceDir = dir
	ro.TraceCache = NewTraceCache()
	replayReqs := build(ro)
	replayed, err := runner.New(2).RunAll(replayReqs)
	if err != nil {
		t.Fatal(err)
	}

	for i := range live {
		if live[i] != replayed[i] {
			t.Errorf("%s: replayed Result diverges from live:\n  live:   %+v\n  replay: %+v",
				liveReqs[i].Bench, live[i], replayed[i])
		}
	}

	// Identity plumbing: spec cells carry spec-fingerprint keys, replayed
	// cells trace-fingerprint keys; all are cacheable.
	for i, q := range liveReqs {
		switch q.Bench {
		case "phase-thrash":
			if !strings.HasPrefix(q.SourceKey, "spec:") {
				t.Errorf("live spec cell SourceKey = %q, want spec:<fp>", q.SourceKey)
			}
		default:
			if q.SourceKey != "" || q.Source != nil {
				t.Errorf("live built-in cell %d unexpectedly bound a source", i)
			}
		}
	}
	for _, q := range replayReqs {
		if !strings.HasPrefix(q.SourceKey, "trace:") {
			t.Errorf("replayed cell %s SourceKey = %q, want trace:<fp>", q.Bench, q.SourceKey)
		}
	}
}

func TestReplayMissingTraceFails(t *testing.T) {
	o := testOpts(t)
	o.ReplayTraceDir = t.TempDir() // empty: no recordings
	q := o.request("missing", "gzip", pipeline.DefaultConfig(), o.Window("gzip"))
	if q.Source == nil || q.SourceKey != "" {
		t.Fatalf("unreadable trace must leave the source unkeyed, hence uncacheable")
	}
	_, err := runner.New(1).RunAll([]runner.Request{q})
	var se *runner.SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("want one-failure SweepError, got %v", err)
	}
}

// TestReplayVersion1TraceFails: a recording in the retired version-1
// format leaves its cell uncacheable and fails it with a message naming
// the version and the command that re-records it.
func TestReplayVersion1TraceFails(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "gzip-v1.trace"))
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts(t)
	o.ReplayTraceDir = t.TempDir()
	if err := os.WriteFile(TraceFileName(o.ReplayTraceDir, "gzip", o.Seed), data, 0o644); err != nil {
		t.Fatal(err)
	}
	q := o.request("v1", "gzip", pipeline.DefaultConfig(), o.Window("gzip"))
	if q.Source == nil || q.SourceKey != "" {
		t.Fatalf("a version-1 trace must leave the source unkeyed, hence uncacheable")
	}
	_, err = runner.New(1).RunAll([]runner.Request{q})
	var se *runner.SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("want one-failure SweepError, got %v", err)
	}
	if msg := se.Failures[0].Err.Error(); !strings.Contains(msg, "format version 1") || !strings.Contains(msg, "-record-trace") {
		t.Fatalf("failure does not name the version and the fix: %v", msg)
	}
}

// TestReplayRejectsWrongWorkload: a trace recorded for one workload must
// not satisfy a request for another, even at the same path.
func TestReplayRejectsWrongWorkload(t *testing.T) {
	dir := t.TempDir()
	o := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"gzip"}}
	if _, err := RecordTraces(o, dir, 0); err != nil {
		t.Fatal(err)
	}
	// Masquerade gzip's recording as swim's.
	if err := os.Rename(TraceFileName(dir, "gzip", 1), TraceFileName(dir, "swim", 1)); err != nil {
		t.Fatal(err)
	}
	ro := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"swim"}, ReplayTraceDir: dir}
	q := ro.request("wrong", "swim", pipeline.DefaultConfig(), ro.Window("swim"))
	_, err := runner.New(1).RunAll([]runner.Request{q})
	var se *runner.SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 {
		t.Fatalf("want one-failure SweepError, got %v", err)
	}
	if msg := se.Failures[0].Err.Error(); !strings.Contains(msg, "source") {
		t.Fatalf("failure does not name the identity mismatch: %v", msg)
	}
}

// TestTraceCacheSharesLoads: N requests over one file read it once.
func TestTraceCacheSharesLoads(t *testing.T) {
	dir := t.TempDir()
	o := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"gzip"}}
	if _, err := RecordTraces(o, dir, 0); err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache()
	path := TraceFileName(dir, "gzip", 1)
	t1, err := c.load(path)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatalf("cache returned distinct trace copies for one path")
	}
	// A nil cache still works, re-reading per call.
	var nilCache *TraceCache
	t3, err := nilCache.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Fatalf("nil cache unexpectedly shared the cached instance")
	}
}

// TestTraceCacheConcurrentLoads: concurrent callers read each file once
// and share one *Packed per path; reads of distinct files overlap rather
// than queueing behind the cache lock; a failed read is retried by the
// next call.
func TestTraceCacheConcurrentLoads(t *testing.T) {
	dir := t.TempDir()
	o := Options{Seed: 1, Scale: 0.001, Benchmarks: []string{"gzip", "swim", "vpr"}}
	if _, err := RecordTraces(o, dir, 0); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, b := range o.Benchmarks {
		paths = append(paths, TraceFileName(dir, b, 1))
	}

	var mu sync.Mutex
	reads := map[string]int{}
	count := func(path string) int {
		mu.Lock()
		defer mu.Unlock()
		reads[path]++
		return reads[path]
	}
	// Every distinct path's read waits until all of them have started, so
	// reads serialized by the cache would time out.
	var started sync.WaitGroup
	started.Add(len(paths))
	allStarted := make(chan struct{})
	go func() { started.Wait(); close(allStarted) }()
	c := NewTraceCache()
	c.read = func(path string) (*trace.Packed, error) {
		if count(path) == 1 {
			started.Done()
			select {
			case <-allStarted:
			case <-time.After(10 * time.Second):
				return nil, errors.New("reads of distinct traces were serialized")
			}
		}
		return trace.ReadPackedFile(path)
	}

	const callers = 6
	got := make([][]*trace.Packed, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		got[i] = make([]*trace.Packed, callers)
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := c.load(path)
				if err != nil {
					t.Error(err)
				}
				got[i][k] = p
			}()
		}
	}
	wg.Wait()
	for i, path := range paths {
		if reads[path] != 1 {
			t.Errorf("%s read %d times, want 1", filepath.Base(path), reads[path])
		}
		for k, p := range got[i] {
			if p == nil || p != got[i][0] {
				t.Fatalf("%s caller %d got a different *Packed", filepath.Base(path), k)
			}
		}
		if i > 0 && got[i][0] == got[i-1][0] {
			t.Fatalf("distinct paths share one *Packed")
		}
	}

	// A failed read stays uncached: each call retries until the file
	// appears, then the load sticks.
	late := filepath.Join(dir, "late.trace")
	c.read = func(path string) (*trace.Packed, error) {
		count(path)
		return trace.ReadPackedFile(path)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		if _, err := c.load(late); err == nil {
			t.Fatalf("load of a missing file succeeded")
		}
		if reads[late] != attempt {
			t.Fatalf("attempt %d: %d reads, want %d (failure was cached)", attempt, reads[late], attempt)
		}
	}
	if err := os.Rename(paths[0], late); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if p, err := c.load(late); err != nil || p.Meta.SourceID != "gzip" {
			t.Fatalf("load after the file appeared: %v", err)
		}
	}
	if reads[late] != 3 {
		t.Fatalf("%d reads of the late file, want 3", reads[late])
	}
}
