package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"clustersim/internal/obs"
	"clustersim/internal/telemetry"
)

// TestStatsConcurrentWithRunAll hammers Stats() and the meter's live
// gauges from several goroutines while a batch runs. Under -race this
// proves the lifetime counters and the gauges (inflight, queue depth,
// utilization) can be read during a sweep — the monitoring path a served
// /metrics endpoint uses.
func TestStatsConcurrentWithRunAll(t *testing.T) {
	r := New(4)
	r.Meter = telemetry.NewSweepMeter(obs.NewRegistry(), nil)

	reqs := make([]Request, 8)
	for i := range reqs {
		q := staticReq("gzip", 4)
		q.Seed = uint64(i + 1) // distinct seeds: no dedup, all execute
		q.Window = 5_000
		reqs[i] = q
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := r.Stats()
				if s.Runs < 0 || s.Runs > len(reqs) || s.Failures != 0 {
					t.Errorf("lifetime counters out of range: %+v", s)
					return
				}
				if r.Meter.Inflight() < 0 || r.Meter.QueueDepth() < 0 {
					t.Error("negative live gauge")
					return
				}
				if u := r.Meter.Utilization(); u < 0 || u > 1 {
					t.Errorf("utilization %v out of [0,1]", u)
					return
				}
			}
		}()
	}

	if _, err := r.RunAll(reqs); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	s := r.Stats()
	if s.Runs != len(reqs) {
		t.Fatalf("Runs = %d, want %d", s.Runs, len(reqs))
	}
	if r.Meter.Inflight() != 0 || r.Meter.QueueDepth() != 0 {
		t.Fatalf("pool did not settle: inflight %d, queued %d", r.Meter.Inflight(), r.Meter.QueueDepth())
	}
}

// TestMeterObservesSweep checks the meter's registry export and progress
// stream agree with the runner's own Stats across cache hits, dedup and
// executions.
func TestMeterObservesSweep(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	r := New(2)
	r.Meter = telemetry.NewSweepMeter(reg, telemetry.NewProgressWriter(&buf))

	// Batch 1: two distinct configs plus one in-batch duplicate.
	if _, err := r.RunAll([]Request{
		staticReq("gzip", 4), staticReq("gzip", 4), staticReq("gzip", 16),
	}); err != nil {
		t.Fatal(err)
	}
	// Batch 2: one cache hit.
	if _, err := r.RunAll([]Request{staticReq("gzip", 4)}); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.Runs != 2 || st.Deduped != 1 || st.CacheHits != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}

	c := reg.Snapshot().Counters
	if c["sweep.runs"] != 2 || c["sweep.deduped"] != 1 || c["sweep.cache_hits"] != 1 {
		t.Fatalf("registry counters disagree: runs=%d deduped=%d hits=%d",
			c["sweep.runs"], c["sweep.deduped"], c["sweep.cache_hits"])
	}
	if c["sweep.span.execute_ns"] == 0 {
		t.Error("no execute time attributed")
	}
	if r.Meter.SpanNanos(telemetry.SpanExecute) == 0 {
		t.Error("SpanNanos(execute) = 0")
	}

	// The progress stream saw both batches and every resolution kind.
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var ev telemetry.ProgressEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad progress line %q: %v", line, err)
		}
		kinds[ev.Event]++
	}
	if kinds["batch_start"] != 2 || kinds["batch_done"] != 2 || kinds["run_done"] != 2 {
		t.Fatalf("progress event kinds = %v", kinds)
	}
}

// TestTelemetryPreservesResults: attaching a meter and a shared phase timer
// (and running parallel) must not change a single bit of any simulation
// result — the instrumentation observes the simulator, never the
// simulation.
func TestTelemetryPreservesResults(t *testing.T) {
	batch := func(pt *telemetry.PhaseTimer) []Request {
		reqs := []Request{
			staticReq("gzip", 4),
			staticReq("swim", 16),
			staticReq("vpr", 4),
			staticReq("gzip", 4), // duplicate
		}
		for i := range reqs {
			reqs[i].Config.Phases = pt
		}
		return reqs
	}

	plain, err := New(1).RunAll(batch(nil))
	if err != nil {
		t.Fatal(err)
	}

	serial := New(1)
	serial.Meter = telemetry.NewSweepMeter(obs.NewRegistry(), nil)
	serialRes, err := serial.RunAll(batch(telemetry.NewPhaseTimer(16)))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	pt := telemetry.NewPhaseTimer(16)
	par := New(4)
	par.Meter = telemetry.NewSweepMeter(obs.NewRegistry(), telemetry.NewProgressWriter(&buf))
	parRes, err := par.RunAll(batch(pt))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, serialRes) {
		t.Fatal("metered serial results differ from unmetered")
	}
	if !reflect.DeepEqual(plain, parRes) {
		t.Fatal("metered parallel results differ from unmetered")
	}
	if pt.Report().SampledCycles == 0 {
		t.Fatal("shared phase timer attributed nothing across the pool")
	}

	// Identical requests must keep identical cache keys with and without
	// the timer attached (dedup above already depends on this).
	with, without := batch(pt)[0], batch(nil)[0]
	if with.key() != without.key() {
		t.Fatal("Phases leaked into the run-cache key")
	}
}
