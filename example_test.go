package clustersim_test

import (
	"fmt"

	"clustersim"
)

// ExampleRun simulates a benchmark on the default 16-cluster machine with a
// fixed configuration: no controller, so all 16 clusters stay active.
func ExampleRun() {
	res, err := clustersim.Run("swim", 1, clustersim.DefaultConfig(), nil, 50_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("policy:", res.Policy)
	fmt.Println("made progress:", res.IPC() > 0.5)
	// Output:
	// policy: static-16
	// made progress: true
}

// ExampleNewProcessor is the README's quickstart: it builds a processor
// over a benchmark's generator, governed by the Figure 4 controller, and
// runs it.
func ExampleNewProcessor() {
	gen, err := clustersim.NewWorkload("gzip", 1)
	if err != nil {
		panic(err)
	}
	ctrl := clustersim.NewExplore(clustersim.ExploreConfig{}) // Figure 4 algorithm
	p, err := clustersim.NewProcessor(clustersim.DefaultConfig(), gen, ctrl)
	if err != nil {
		panic(err)
	}
	res, err := p.Run(1_000_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("made progress:", res.IPC() > 1)
	fmt.Println("disabled clusters on average:", res.AvgActiveClusters() < 16)
	// Output:
	// made progress: true
	// disabled clusters on average: true
}

// ExampleNewExplore runs the paper's Figure 4 adaptive controller and shows
// that it disables clusters for a low-ILP program.
func ExampleNewExplore() {
	ctrl := clustersim.NewExplore(clustersim.ExploreConfig{})
	res, err := clustersim.Run("vpr", 1, clustersim.DefaultConfig(), ctrl, 300_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("policy:", res.Policy)
	fmt.Println("disabled clusters on average:", res.AvgActiveClusters() < 15)
	// Output:
	// policy: interval-explore
	// disabled clusters on average: true
}

// ExampleNewRecorder performs the paper's Table 4 phase-stability analysis
// on a uniform benchmark.
func ExampleNewRecorder() {
	rec := clustersim.NewRecorder(10_000)
	if _, err := clustersim.Run("swim", 1, clustersim.DefaultConfig(), rec, 400_000); err != nil {
		panic(err)
	}
	f := clustersim.Instability(rec.Intervals())
	fmt.Println("swim is a stable program:", f < 15)
	// Output:
	// swim is a stable program: true
}

// ExampleNewSMT co-schedules two threads on dedicated cluster partitions
// (the paper's §8 proposal).
func ExampleNewSMT() {
	sys, err := clustersim.NewSMT(clustersim.DefaultConfig(), []clustersim.Thread{
		{Bench: "swim", Seed: 1},
		{Bench: "vpr", Seed: 1},
	}, 16, clustersim.DistantILPPartition{})
	if err != nil {
		panic(err)
	}
	rep, err := sys.Run(20, 10_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("both threads progressed:", rep.ThreadIPC[0] > 0 && rep.ThreadIPC[1] > 0)
	fmt.Println("swim got more clusters:", rep.AvgClusters(0) > rep.AvgClusters(1))
	// Output:
	// both threads progressed: true
	// swim got more clusters: true
}
