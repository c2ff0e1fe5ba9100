package spec_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/smt"
	"clustersim/internal/spec"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// specsDir is the checked-in spec directory at the repository root.
const specsDir = "../../specs"

// oracleWindow keeps the full 9-benchmark × 4-policy matrix fast while
// still crossing several phase boundaries of every workload.
const oracleWindow = 20_000

const oracleSeed = 1

// policies is the controller matrix the byte-identity oracles sweep.
var policies = []struct {
	name string
	mk   func() pipeline.Controller
}{
	{"static", func() pipeline.Controller { return nil }},
	{"explore", func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }},
	{"dilp", func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{}) }},
	{"fg", func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }},
}

func runGen(t *testing.T, gen workload.Generator, mkCtrl func() pipeline.Controller, window uint64) pipeline.Result {
	t.Helper()
	p, err := pipeline.New(pipeline.DefaultConfig(), gen, mkCtrl())
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	res, err := p.Run(window)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestSpecOracle is the trace round-trip proof over the nine benchmarks:
// for each checked-in spec, a trace recorded from the built-in generator
// (which compiles that spec) replays to a simulated Result byte-identical
// to live generation under every reconfiguration policy.
func TestSpecOracle(t *testing.T) {
	for _, bench := range workload.Benchmarks() {
		s, err := spec.LoadFile(filepath.Join(specsDir, bench+".json"))
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: Fingerprint: %v", bench, err)
		}
		for _, pol := range policies {
			t.Run(bench+"/"+pol.name, func(t *testing.T) {
				liveGen, err := workload.New(bench, oracleSeed)
				if err != nil {
					t.Fatal(err)
				}
				live := runGen(t, liveGen, pol.mk, oracleWindow)

				recGen, err := workload.New(bench, oracleSeed)
				if err != nil {
					t.Fatal(err)
				}
				tr := trace.Record(recGen, oracleWindow+trace.DefaultHeadroom, trace.Meta{
					Name: bench, SourceKind: trace.SourceSpec, SourceID: bench,
					SourceFP: fp, Seed: oracleSeed,
				})
				replayed := runGen(t, tr.Replayer(), pol.mk, oracleWindow)
				if live != replayed {
					t.Errorf("replayed run diverges from live generation:\n  live:   %+v\n  replay: %+v", live, replayed)
				}
			})
		}
	}
}

// TestThrashSpecOracle runs the adversarial phase-thrashing stressor:
// phase lengths sampled near the controllers' decision interval, so
// policies reconfigure constantly. Record → replay must still be
// byte-identical under every policy.
func TestThrashSpecOracle(t *testing.T) {
	s, err := spec.LoadFile(filepath.Join(specsDir, "phase-thrash.json"))
	if err != nil {
		t.Fatal(err)
	}
	const window = 60_000
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			liveGen, err := spec.Compile(s, oracleSeed)
			if err != nil {
				t.Fatal(err)
			}
			live := runGen(t, liveGen, pol.mk, window)
			if live.Instructions < window {
				t.Fatalf("thrash run committed only %d of %d", live.Instructions, window)
			}

			recGen, err := spec.Compile(s, oracleSeed)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.Record(recGen, window+trace.DefaultHeadroom, trace.Meta{
				Name: s.Name, SourceKind: trace.SourceSpec, SourceID: s.Name, Seed: oracleSeed,
			})
			replayed := runGen(t, tr.Replayer(), pol.mk, window)
			if live != replayed {
				t.Errorf("replayed thrash run diverges:\n  live:   %+v\n  replay: %+v", live, replayed)
			}
		})
	}
}

// TestSMTMixSpecOracle compiles the checked-in multi-programmed mix, runs
// it through the SMT co-schedule live, then replays every thread from a
// recording and demands an identical Report.
func TestSMTMixSpecOracle(t *testing.T) {
	s, err := spec.LoadFile(filepath.Join(specsDir, "smt-mix.json"))
	if err != nil {
		t.Fatal(err)
	}
	const (
		epochs      = 6
		epochCycles = 2_000
		total       = 16
	)
	run := func(threads []smt.Thread) smt.Report {
		t.Helper()
		sys, err := smt.New(pipeline.DefaultConfig(), threads, total, smt.DistantILPPartition{})
		if err != nil {
			t.Fatalf("smt.New: %v", err)
		}
		rep, err := sys.Run(epochs, epochCycles)
		if err != nil {
			t.Fatalf("smt.Run: %v", err)
		}
		return rep
	}

	liveThreads, err := spec.CompileMix(s, oracleSeed)
	if err != nil {
		t.Fatal(err)
	}
	var threads []smt.Thread
	for _, th := range liveThreads {
		threads = append(threads, smt.Thread{Bench: th.Name, Seed: th.Seed, Gen: th.Gen})
	}
	live := run(threads)

	// Replay arm: record each thread's stream from a fresh compile, then
	// feed replayers instead of live generators. An SMT epoch can fetch at
	// most epochs*epochCycles*FetchWidth instructions; headroom on top.
	recThreads, err := spec.CompileMix(s, oracleSeed)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(epochs*epochCycles)*uint64(pipeline.DefaultConfig().FetchWidth) + trace.DefaultHeadroom
	var replayThreads []smt.Thread
	for _, th := range recThreads {
		tr := trace.Record(th.Gen, budget, trace.Meta{
			Name: th.Name, SourceKind: trace.SourceCustom, SourceID: th.Name, Seed: th.Seed,
		})
		replayThreads = append(replayThreads, smt.Thread{Bench: th.Name, Seed: th.Seed, Gen: tr.Replayer()})
	}
	replayed := run(replayThreads)

	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("replayed SMT mix diverges from live co-schedule:\n  live:   %+v\n  replay: %+v", live, replayed)
	}
}
