package core

import (
	"fmt"
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

func TestControllerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	windows := map[string]uint64{
		"gzip": 1_700_000, "parser": 2_000_000, "crafty": 1_000_000,
		"swim": 800_000, "mgrid": 800_000, "galgel": 600_000,
		"djpeg": 600_000, "cjpeg": 600_000, "vpr": 600_000,
	}
	for _, name := range workload.Benchmarks() {
		w := windows[name]
		line := fmt.Sprintf("%-7s", name)
		var best float64
		var dyn []float64
		for _, run := range smokeRuns(pipeline.DefaultConfig(),
			NewExplore(ExploreConfig{}),
			NewDistantILP(DistantILPConfig{}),
			NewFineGrain(FineGrainConfig{}),
			NewFineGrain(FineGrainConfig{CallReturnOnly: true}),
		) {
			p := pipeline.MustNew(run.cfg, workload.MustNew(name, 1), run.ctrl)
			r := mustRun(t, p, w)
			line += fmt.Sprintf(" %s:%.2f", r.Policy, r.IPC())
			if run.ctrl == nil {
				if r.IPC() > best {
					best = r.IPC()
				}
			} else {
				dyn = append(dyn, r.IPC())
			}
		}
		fmt.Printf("%s  [best-static %.2f | explore %+.0f%% dilp %+.0f%% fg %+.0f%% fgcr %+.0f%%]\n", line, best,
			100*(dyn[0]/best-1), 100*(dyn[1]/best-1), 100*(dyn[2]/best-1), 100*(dyn[3]/best-1))
	}
}

// mustRun advances p by n committed instructions, failing the test on error.
func mustRun(tb testing.TB, p *pipeline.Processor, n uint64) pipeline.Result {
	tb.Helper()
	res, err := p.Run(n)
	if err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return res
}

// smokeRun is one machine of a smoke comparison.
type smokeRun struct {
	cfg  pipeline.Config
	ctrl pipeline.Controller
}

// smokeRuns returns the static 4- and 16-cluster organizations of cfg,
// which run without a controller, followed by cfg under each of ctrls.
func smokeRuns(cfg pipeline.Config, ctrls ...pipeline.Controller) []smokeRun {
	narrow := cfg
	narrow.ActiveClusters = 4
	runs := []smokeRun{{cfg: narrow}, {cfg: cfg}}
	for _, c := range ctrls {
		runs = append(runs, smokeRun{cfg: cfg, ctrl: c})
	}
	return runs
}
