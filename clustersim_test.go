package clustersim_test

import (
	"path/filepath"
	"testing"

	"clustersim"
)

// staticConfig is the default machine as a fixed n-cluster organization,
// which runs without a controller.
func staticConfig(n int) clustersim.Config {
	cfg := clustersim.DefaultConfig()
	cfg.ActiveClusters = n
	return cfg
}

func TestPublicAPIQuickRun(t *testing.T) {
	res, err := clustersim.Run("gzip", 1, staticConfig(4), nil, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 || res.Policy != "static-4" || res.Benchmark != "gzip" {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestPublicAPIUnknownBenchmark(t *testing.T) {
	if _, err := clustersim.Run("nope", 1, clustersim.DefaultConfig(), nil, 10); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPublicAPIBadConfig(t *testing.T) {
	cfg := clustersim.DefaultConfig()
	cfg.Clusters = 0
	if _, err := clustersim.Run("gzip", 1, cfg, nil, 10); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestBenchmarksAndPaperData(t *testing.T) {
	names := clustersim.Benchmarks()
	if len(names) != 9 {
		t.Fatalf("%d benchmarks", len(names))
	}
	for _, n := range names {
		pd, ok := clustersim.Paper(n)
		if !ok || pd.BaseIPC <= 0 {
			t.Errorf("missing paper data for %s", n)
		}
	}
	if _, ok := clustersim.Paper("nope"); ok {
		t.Fatal("paper data for unknown benchmark")
	}
}

func TestAllControllersViaFacade(t *testing.T) {
	ctrls := []clustersim.Controller{
		clustersim.NewExplore(clustersim.ExploreConfig{}),
		clustersim.NewDistantILP(clustersim.DistantILPConfig{}),
		clustersim.NewFineGrain(clustersim.FineGrainConfig{}),
		clustersim.NewFineGrain(clustersim.FineGrainConfig{CallReturnOnly: true}),
	}
	for _, ctrl := range ctrls {
		res, err := clustersim.Run("djpeg", 1, clustersim.DefaultConfig(), ctrl, 15_000)
		if err != nil {
			t.Fatalf("%s: %v", ctrl.Name(), err)
		}
		if res.IPC() <= 0 {
			t.Errorf("%s made no progress", ctrl.Name())
		}
	}
}

func TestRecorderAndInstabilityViaFacade(t *testing.T) {
	rec := clustersim.NewRecorder(1_000)
	if _, err := clustersim.Run("cjpeg", 1, clustersim.DefaultConfig(), rec, 50_000); err != nil {
		t.Fatal(err)
	}
	trace := rec.Intervals()
	if len(trace) < 40 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	f := clustersim.Instability(trace)
	if f < 0 || f > 100 {
		t.Fatalf("instability %f out of range", f)
	}
}

func TestProcessorIncrementalRuns(t *testing.T) {
	gen, err := clustersim.NewWorkload("mgrid", 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := clustersim.NewProcessor(clustersim.DefaultConfig(), gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	// Run may overshoot its target by up to one commit-width batch.
	more := r2.Instructions - r1.Instructions
	if more < 5_000 || more > 5_000+16 {
		t.Fatalf("incremental run: %d then %d", r1.Instructions, r2.Instructions)
	}
	if p.ActiveClusters() != 16 {
		t.Fatalf("active clusters %d", p.ActiveClusters())
	}
	if p.Cycle() == 0 || p.Committed() != r2.Instructions {
		t.Fatal("cycle/committed accessors inconsistent")
	}
}

func TestGzipHeadlineResult(t *testing.T) {
	// The paper's central claim on its showcase benchmark: the adaptive
	// interval-based scheme beats both static extremes on gzip because
	// its phases want different widths.
	if testing.Short() {
		t.Skip("slow")
	}
	const window = 1_700_000
	s4, err := clustersim.Run("gzip", 1, staticConfig(4), nil, window)
	if err != nil {
		t.Fatal(err)
	}
	s16, err := clustersim.Run("gzip", 1, staticConfig(16), nil, window)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := clustersim.Run("gzip", 1, clustersim.DefaultConfig(),
		clustersim.NewExplore(clustersim.ExploreConfig{}), window)
	if err != nil {
		t.Fatal(err)
	}
	best := s4.IPC()
	if s16.IPC() > best {
		best = s16.IPC()
	}
	if dyn.IPC() <= best {
		t.Fatalf("adaptive (%.3f) did not beat best static (%.3f)", dyn.IPC(), best)
	}
	if dyn.Reconfigs == 0 {
		t.Fatal("adaptive scheme never reconfigured")
	}
}

// TestTraceFilesViaFacade: the facade's trace surface streams a live
// generator into a file, the returned header states the stream's identity,
// and the packed reader loads exactly that identity and content back.
func TestTraceFilesViaFacade(t *testing.T) {
	const n = 3000
	meta := clustersim.TraceMeta{Name: "swim", SourceKind: clustersim.TraceSourceBench, SourceID: "swim", Seed: 2}
	gen, err := clustersim.NewWorkload("swim", 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "swim.trace")
	h, err := clustersim.RecordTraceFile(path, gen, n, meta)
	if err != nil {
		t.Fatal(err)
	}
	if h.Meta != meta || h.Count != n || h.Fingerprint == 0 {
		t.Fatalf("header %+v, want meta %+v and count %d", h, meta, n)
	}
	packed, err := clustersim.ReadPackedTraceFile(path)
	if err != nil || packed.Meta != meta || packed.Len != n || packed.Fingerprint() != h.Fingerprint {
		t.Fatalf("ReadPackedTraceFile: %v", err)
	}
}
