// Energy: the leakage-savings story of §4.2 — when the adaptive controller
// disables clusters for single-thread performance, those clusters can be
// voltage-gated (or given to other threads).
//
// This example reports, per benchmark, how many of the 16 clusters the
// exploration scheme leaves disabled on average and the single-thread IPC
// cost/gain versus always powering all 16 (the paper reports 8.3 of 16
// disabled on average at an 11% performance *gain*).
//
//	go run ./examples/energy
package main

import (
	"fmt"
	"log"

	"clustersim"
)

func main() {
	fmt.Printf("%-9s %14s %14s %12s %12s\n",
		"bench", "IPC static-16", "IPC adaptive", "disabled", "IPC delta")

	var sumDisabled, n float64
	for _, bench := range clustersim.Benchmarks() {
		window := uint64(600_000)
		if bench == "gzip" || bench == "parser" {
			window = 1_700_000
		}
		stat, err := clustersim.Run(bench, 1, clustersim.DefaultConfig(), nil, window)
		if err != nil {
			log.Fatal(err)
		}
		adpt, err := clustersim.Run(bench, 1, clustersim.DefaultConfig(),
			clustersim.NewExplore(clustersim.ExploreConfig{}), window)
		if err != nil {
			log.Fatal(err)
		}
		disabled := 16 - adpt.AvgActiveClusters()
		sumDisabled += disabled
		n++
		fmt.Printf("%-9s %14.3f %14.3f %12.1f %+11.1f%%\n",
			bench, stat.IPC(), adpt.IPC(), disabled, 100*(adpt.IPC()/stat.IPC()-1))
	}
	fmt.Printf("\naverage clusters disabled: %.1f of 16 (paper: 8.3)\n", sumDisabled/n)
	fmt.Println("Disabled clusters can be supply-gated for leakage savings or")
	fmt.Println("partitioned among other threads at no single-thread cost.")
}
