package experiments

import (
	"fmt"

	"clustersim/internal/energy"
	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/smt"
)

// Energy quantifies §4.2's leakage argument with the normalized energy
// model: per benchmark, the leakage-energy saving and energy-delay product
// of the adaptive scheme (with disabled clusters voltage-gated) against the
// always-16 static machine.
func Energy(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-energy",
		Title:   "Leakage savings from cluster disabling (extension of §4.2)",
		Columns: []string{"IPC-16", "IPC-adaptive", "disabled", "leak-save%", "EDP-ratio"},
		Notes: []string{
			"normalized first-order energy model (internal/energy); the paper reports only the disabled-cluster count",
			"EDP-ratio < 1 means the adaptive gated machine wins energy-delay",
		},
	}
	specs, err := columnPolicies([]string{"static-16", "explore"})
	if err != nil {
		return nil, err
	}
	sweep, err := schemeSweep(o, "ext-energy", pipeline.DefaultConfig(), specs)
	if sweep == nil {
		return nil, err
	}
	model := energy.DefaultModel()
	var disabled []float64
	for i, b := range o.benchmarks() {
		rstatic, radapt := sweep[i][0], sweep[i][1]
		if failed(rstatic) || failed(radapt) {
			// The energy comparison needs both halves of the pair.
			t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
				ipcCell(rstatic), ipcCell(radapt), Str("-"), Str("-"), Str("-"),
			}})
			continue
		}
		adapt := energy.ActivityOf(radapt)
		saving := model.LeakageSavings(adapt, 16)
		edpRatio := model.EDP(adapt) / model.EDP(energy.ActivityOf(rstatic))
		off := 16 - radapt.AvgActiveClusters()
		disabled = append(disabled, off)
		t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
			Num(rstatic.IPC(), 2),
			Num(radapt.IPC(), 2),
			Num(off, 1),
			Num(100*saving, 0),
			Num(edpRatio, 2),
		}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("avg clusters disabled: %.1f of 16 (paper: 8.3)",
		mean(disabled)))
	return t, err
}

// SMT evaluates the paper's future-work proposal (§1, §8): dedicating
// cluster partitions to threads and retuning the split dynamically. Pairs
// an ILP-hungry thread with a serial one and compares static splits against
// the distant-ILP-driven partitioner.
//
// SMT systems co-schedule two machines, so their cells do not go through
// the pipeline run cache; the pair×policy grid is instead parallelized
// directly on a worker pool.
func SMT(o Options) (*Table, error) {
	t := &Table{
		ID:      "ext-smt",
		Title:   "Multi-threaded cluster partitioning (extension of §1/§8)",
		Columns: []string{"equal-8/8", "fixed-12/4", "fixed-4/12", "adaptive", "adaptive-split"},
		Notes: []string{
			"cells are combined instructions per cycle over both threads",
			"partitions are dedicated (no cross-thread interference), per the paper's proposal",
		},
	}
	pairs := [][2]string{
		{"swim", "vpr"},
		{"djpeg", "parser"},
		{"mgrid", "crafty"},
		{"gzip", "cjpeg"},
	}
	epochCycles := uint64(10_000)
	epochs := int(o.scale() * 100)
	if epochs < 20 {
		epochs = 20
	}
	policies := []func() smt.PartitionPolicy{
		func() smt.PartitionPolicy { return smt.EqualPartition{} },
		func() smt.PartitionPolicy { return smt.FixedPartition{Split: []int{12, 4}} },
		func() smt.PartitionPolicy { return smt.FixedPartition{Split: []int{4, 12}} },
		func() smt.PartitionPolicy { return smt.DistantILPPartition{} },
	}
	reports := make([]smt.Report, len(pairs)*len(policies))
	err := runner.Each(o.sweeper().Workers, len(reports), func(i int) error {
		pair := pairs[i/len(policies)]
		pol := policies[i%len(policies)]()
		threads := []smt.Thread{
			{Bench: pair[0], Seed: o.seed()},
			{Bench: pair[1], Seed: o.seed()},
		}
		sys, err := smt.New(pipeline.DefaultConfig(), threads, 16, pol)
		if err != nil {
			return err
		}
		rep, err := sys.Run(epochs, epochCycles)
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ext-smt: %w", err)
	}
	for pi, pair := range pairs {
		row := Row{Name: pair[0] + "+" + pair[1]}
		var adaptive smt.Report
		for si := range policies {
			rep := reports[pi*len(policies)+si]
			row.Cells = append(row.Cells, Num(rep.Throughput(), 2))
			if si == len(policies)-1 {
				adaptive = rep
			}
		}
		row.Cells = append(row.Cells, Str(fmt.Sprintf("%.1f/%.1f",
			adaptive.AvgClusters(0), adaptive.AvgClusters(1))))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
