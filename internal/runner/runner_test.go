package runner

import (
	"reflect"
	"sync/atomic"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
)

const testWindow = 20_000

func staticReq(bench string, active int) Request {
	cfg := pipeline.DefaultConfig()
	cfg.ActiveClusters = active
	return Request{ID: "t", Bench: bench, Seed: 1, Window: testWindow, Config: cfg}
}

// TestParallelMatchesSerial: the same batch on 1 worker and on 4 workers
// yields identical results in identical order.
func TestParallelMatchesSerial(t *testing.T) {
	batch := func() []Request {
		return []Request{
			staticReq("gzip", 4),
			staticReq("gzip", 16),
			staticReq("swim", 4),
			{ID: "t", Bench: "swim", Seed: 1, Window: testWindow,
				Config: pipeline.DefaultConfig(), Controller: core.NewExplore(core.ExploreConfig{})},
			staticReq("vpr", 16),
			staticReq("gzip", 4), // duplicate of [0]
		}
	}
	serial, err := New(1).RunAll(batch())
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(4).RunAll(batch())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel results differ from serial:\nserial: %v\npar:    %v", serial, par)
	}
	if serial[0] != serial[5] {
		t.Fatal("duplicate requests returned different results")
	}
}

// TestCacheAndDedup: identical requests execute once per runner lifetime —
// deduped within a batch, cache-served across batches.
func TestCacheAndDedup(t *testing.T) {
	r := New(2)
	batch := []Request{staticReq("gzip", 4), staticReq("gzip", 4), staticReq("gzip", 16)}
	first, err := r.RunAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Runs != 2 || st.Deduped != 1 || st.CacheHits != 0 {
		t.Fatalf("after first batch: %+v", st)
	}
	second, err := r.RunAll([]Request{staticReq("gzip", 16), staticReq("gzip", 4)})
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.Runs != 2 || st.CacheHits != 2 {
		t.Fatalf("after second batch: %+v", st)
	}
	if second[0] != first[2] || second[1] != first[0] {
		t.Fatal("cache served wrong results")
	}

	r.DisableCache = true
	if _, err := r.RunAll([]Request{staticReq("gzip", 4)}); err != nil {
		t.Fatal(err)
	}
	if st = r.Stats(); st.Runs != 3 {
		t.Fatalf("DisableCache did not force execution: %+v", st)
	}
}

// TestKeyDiscriminates: differing configs, windows, seeds and policies must
// not collide.
func TestKeyDiscriminates(t *testing.T) {
	base := staticReq("gzip", 4)
	vary := []func(*Request){
		func(q *Request) { q.Bench = "swim" },
		func(q *Request) { q.Seed = 2 },
		func(q *Request) { q.Window = testWindow + 1 },
		func(q *Request) { q.Config.ActiveClusters = 8 },
		func(q *Request) { q.Config.HopLatency = 2 },
		func(q *Request) { q.Config.Cache = pipeline.DecentralizedCache },
		func(q *Request) { q.PolicyKey = "variant" },
		func(q *Request) { q.SourceKey = "variant" },
	}
	seen := map[uint64]int{base.key(): -1}
	for i, mutate := range vary {
		q := staticReq("gzip", 4)
		mutate(&q)
		k := q.key()
		if j, ok := seen[k]; ok {
			t.Fatalf("variation %d collides with %d", i, j)
		}
		seen[k] = i
	}
}

// TestErrorAggregation: a sweep with failing runs returns a *SweepError
// naming every failure while the healthy runs still produce results.
func TestErrorAggregation(t *testing.T) {
	bad := staticReq("no-such-bench", 4)
	badCfg := staticReq("gzip", 4)
	badCfg.Config.ROB = -1
	reqs := []Request{staticReq("gzip", 4), bad, badCfg}
	rs, err := New(2).RunAll(reqs)
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SweepError)
	if !ok {
		t.Fatalf("want *SweepError, got %T: %v", err, err)
	}
	if len(se.Failures) != 2 || se.Total != 3 {
		t.Fatalf("failures: %+v", se)
	}
	if rs[0].Instructions < testWindow {
		t.Fatal("healthy run missing its result")
	}
	for _, f := range se.Failures {
		if f.Bench == "" || f.Err == nil {
			t.Fatalf("incomplete failure record: %+v", f)
		}
	}
}

// TestObserverIsolationAndMerge exercises the worker pool with per-run obs
// registries attached (run under -race in CI): registries stay isolated per
// run, observed runs bypass the cache, and the aggregate snapshot is the
// sum of the per-run snapshots.
func TestObserverIsolationAndMerge(t *testing.T) {
	r := New(4)
	const runs = 6
	var posts atomic.Int64
	reqs := make([]Request, runs)
	observers := make([]*obs.Observer, runs)
	for i := range reqs {
		ob := &obs.Observer{Registry: obs.NewRegistry(), SamplePeriod: 1_000, Series: &obs.TimeSeries{}}
		observers[i] = ob
		q := staticReq([]string{"gzip", "swim", "vpr"}[i%3], 4+4*(i%2))
		q.Config.Observer = ob
		q.PostRun = func(pipeline.Result) { posts.Add(1) }
		reqs[i] = q
	}
	rs, err := r.RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := posts.Load(); got != runs {
		t.Fatalf("PostRun ran %d times, want %d (observed runs must never be cache-elided)", got, runs)
	}
	var wantInstr uint64
	for i, ob := range observers {
		snap := ob.Registry.Snapshot()
		if snap.Counters["pipeline.instructions"] != rs[i].Instructions {
			t.Fatalf("run %d: registry %d instructions, result %d",
				i, snap.Counters["pipeline.instructions"], rs[i].Instructions)
		}
		wantInstr += rs[i].Instructions
	}
	agg, n := r.AggregateSnapshot()
	if n != runs {
		t.Fatalf("aggregate folded %d runs, want %d", n, runs)
	}
	if agg.Counters["pipeline.instructions"] != wantInstr {
		t.Fatalf("aggregate instructions %d, want %d", agg.Counters["pipeline.instructions"], wantInstr)
	}
}

// TestEach: ordered error aggregation and full index coverage.
func TestEach(t *testing.T) {
	hit := make([]atomic.Int64, 10)
	if err := Each(4, len(hit), func(i int) error { hit[i].Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := range hit {
		if hit[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hit[i].Load())
		}
	}
	err := Each(3, 4, func(i int) error {
		if i%2 == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected aggregated error")
	}
}

// nopChecker is a minimal pipeline.Checker.
type nopChecker struct{}

func (c *nopChecker) CheckCycle(*pipeline.MachineView) {}

// TestCheckerRequestsNeverCached: a request carrying a checker must execute
// even when an identical unchecked run is cached (and vice versa) — the
// checker is stateful and validation must actually observe the run.
func TestCheckerRequestsNeverCached(t *testing.T) {
	r := New(1)
	plain := staticReq("gzip", 4)
	if _, err := r.RunAll([]Request{plain}); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Runs; got != 1 {
		t.Fatalf("expected 1 run, got %d", got)
	}

	checked := staticReq("gzip", 4)
	chk := &nopChecker{}
	checked.Config.Checker = chk
	res, err := r.RunAll([]Request{checked})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Runs != 2 {
		t.Fatalf("checked request served from cache: %+v", st)
	}
	if st.CacheHits != 0 || st.Deduped != 0 {
		t.Fatalf("checked request aliased a cached run: %+v", st)
	}
	if res[0].Instructions < testWindow {
		t.Fatalf("checked run incomplete: %+v", res[0])
	}

	// Nor is the checked run's result stored: a later identical checked
	// request executes again (its own checker must see its own run).
	again := staticReq("gzip", 4)
	again.Config.Checker = &nopChecker{}
	if _, err := r.RunAll([]Request{again}); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Runs; got != 3 {
		t.Fatalf("second checked request served from cache (runs=%d)", got)
	}
}
