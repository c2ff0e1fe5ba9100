package pipeline_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

// snapMachine is one machine shape a snapshot test builds: a configuration
// and a controller factory (nil for a static organization).
type snapMachine struct {
	name string
	cfg  func() pipeline.Config
	ctrl func() pipeline.Controller
}

func withActive(n int) func() pipeline.Config {
	return func() pipeline.Config {
		c := pipeline.DefaultConfig()
		c.ActiveClusters = n
		return c
	}
}

func distCache() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.Cache = pipeline.DecentralizedCache
	return c
}

func gridTopology() pipeline.Config {
	c := pipeline.DefaultConfig()
	c.Topology = pipeline.GridTopology
	return c
}

func explore() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }
func dilp1K() pipeline.Controller {
	return core.NewDistantILP(core.DistantILPConfig{Interval: 1_000})
}
func fineGrain() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }

// goldenMachines are the five machines whose snapshot bytes the golden pins:
// both static organizations of Fig 3's centralized machine, and one dynamic
// controller of each family, spread over both caches and both topologies.
var goldenMachines = []snapMachine{
	{"static-16", pipeline.DefaultConfig, nil},
	{"static-4", withActive(4), nil},
	{"explore", pipeline.DefaultConfig, explore},
	{"dilp-1k-dist", distCache, dilp1K},
	{"fine-grain-grid", gridTopology, fineGrain},
}

// TestSnapshotGolden pins the snapshot format byte for byte: the length and
// FNV-64a of SaveCheckpoint's bytes after 30K instructions, for every
// benchmark on the five golden machines under both steppers. The steppers
// pin separate hashes because their snapshots differ in the uops' readyAt
// wakeup hint (see TestSnapshotBytesStepperIndependent). A change that
// means to move the format bumps the snapshot version and regenerates the
// file with -update.
func TestSnapshotGolden(t *testing.T) {
	const at = 30_000
	var got bytes.Buffer
	for _, bench := range workload.Benchmarks() {
		for _, m := range goldenMachines {
			for _, stepper := range []string{"event", "legacy"} {
				cfg := m.cfg()
				cfg.LegacyStepper = stepper == "legacy"
				p := buildFor(t, bench, 1, cfg, m.ctrl)
				runOK(t, p, at)
				var buf bytes.Buffer
				if err := p.SaveCheckpoint(&buf); err != nil {
					t.Fatalf("%s/%s/%s: %v", bench, m.name, stepper, err)
				}
				h := fnv.New64a()
				h.Write(buf.Bytes())
				fmt.Fprintf(&got, "%s/%s/%s %d %016x\n", bench, m.name, stepper, buf.Len(), h.Sum64())
			}
		}
	}
	path := filepath.Join("testdata", "snapshots.golden")
	if *pipeline.UpdateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, the run wrote %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("snapshot diverges from the golden:\n  got:  %s\n  want: %s", gotLines[i], wantLines[i])
		}
	}
}
