package experiments

import (
	"fmt"

	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
)

// Sensitivity reproduces §6's parameter sweeps: fewer/more per-cluster
// resources, extra functional units, and doubled hop latency, reporting the
// exploration scheme's geomean improvement over the best static base under
// each variant (the paper reports 8%, 13%, ~11% and 23%).
func Sensitivity(o Options) (*Table, error) {
	t := &Table{
		ID:    "sens",
		Title: "Sensitivity analysis (paper §6)",
		Columns: []string{
			"static-4", "static-8", "static-16", "explore", "improve%",
		},
	}
	variants := []struct {
		name   string
		mutate func(*pipeline.Config)
		paper  string
	}{
		{"baseline", func(c *pipeline.Config) {}, "11%"},
		{"fewer-resources (10 IQ / 20 regs)", func(c *pipeline.Config) {
			c.IQPerCluster = 10
			c.RegsPerCluster = 20
		}, "8%"},
		{"more-resources (20 IQ / 40 regs)", func(c *pipeline.Config) {
			c.IQPerCluster = 20
			c.RegsPerCluster = 40
		}, "13%"},
		{"more-FUs (2 of each)", func(c *pipeline.Config) {
			c.IntALU, c.IntMulDiv, c.FPALU, c.FPMulDiv = 2, 2, 2, 2
		}, "~11%"},
		{"2-cycle hops", func(c *pipeline.Config) {
			c.HopLatency = 2
		}, "23%"},
	}
	// The full variant × benchmark × scheme grid goes out as one batch so
	// the worker pool sees every independent run at once (the baseline
	// variant's cells are shared with Fig5 via the run cache).
	specs, err := columnPolicies(t.Columns[:4])
	if err != nil {
		return nil, err
	}
	benches := o.benchmarks()
	schemes := len(specs)
	var reqs []runner.Request
	for vi, v := range variants {
		id := fmt.Sprintf("sens%d", vi)
		cfg := pipeline.DefaultConfig()
		v.mutate(&cfg)
		for _, b := range benches {
			for _, s := range specs {
				req, err := o.policyRequest(id, b, cfg, s)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, req)
			}
		}
	}
	rs, err := o.sweep("sens", reqs)
	if rs == nil {
		return nil, err
	}
	for vi, v := range variants {
		// Geomean IPC over the benchmark set per scheme. In a salvaged
		// sweep the failed cells are excluded, so an aggregate may cover
		// a subset of the benchmarks (or nothing, rendering "-").
		var per [4][]float64
		for bi := range benches {
			base := (vi*len(benches) + bi) * schemes
			for si := 0; si < schemes; si++ {
				if r := rs[base+si]; !failed(r) {
					per[si] = append(per[si], r.IPC())
				}
			}
		}
		gms := make([]float64, 0, 4)
		for i := range per {
			gms = append(gms, geomean(per[i]))
		}
		bestStatic := gms[0]
		for _, g := range gms[:3] {
			if g > bestStatic {
				bestStatic = g
			}
		}
		improveCell := Str(fmt.Sprintf("- (paper %s)", v.paper))
		if bestStatic > 0 && gms[3] > 0 {
			improve := 100 * (gms[3]/bestStatic - 1)
			improveCell = Str(fmt.Sprintf("%+.1f%% (paper %s)", improve, v.paper))
		}
		t.Rows = append(t.Rows, Row{Name: v.name, Cells: []Cell{
			numOrDash(gms[0], 2), numOrDash(gms[1], 2), numOrDash(gms[2], 2), numOrDash(gms[3], 2),
			improveCell,
		}})
	}
	t.Notes = append(t.Notes,
		"cells are geomean IPC over the benchmark set; improve% compares explore to the best static geomean")
	return t, err
}

// Ablations reproduces the paper's in-text idealization studies: zero-cost
// load/store communication (+31%), zero-cost register communication (+11%)
// on the centralized 16-cluster machine; perfect bank prediction (+29%) and
// free register communication (+27%) on the decentralized machine; plus the
// measured average inter-cluster communication latency (4.1 cycles) and the
// average number of disabled clusters under the exploration scheme (8.3).
func Ablations(o Options) (*Table, error) {
	t := &Table{
		ID:      "ablate",
		Title:   "Idealized-communication ablations (paper §4 and §5 in-text)",
		Columns: []string{"geomean-IPC", "vs-base", "paper"},
	}

	type variant struct {
		name   string
		cache  pipeline.CacheModel
		mutate func(*pipeline.Config)
		paper  string
	}
	variants := []variant{
		{"central-base", pipeline.CentralizedCache, func(c *pipeline.Config) {}, "-"},
		{"central-free-ldst-comm", pipeline.CentralizedCache, func(c *pipeline.Config) { c.FreeLoadComm = true }, "+31%"},
		{"central-free-reg-comm", pipeline.CentralizedCache, func(c *pipeline.Config) { c.FreeRegComm = true }, "+11%"},
		{"dist-base", pipeline.DecentralizedCache, func(c *pipeline.Config) {}, "-"},
		{"dist-perfect-banks", pipeline.DecentralizedCache, func(c *pipeline.Config) { c.PerfectBankPred = true }, "+29%"},
		{"dist-free-reg-comm", pipeline.DecentralizedCache, func(c *pipeline.Config) { c.FreeRegComm = true }, "+27%"},
	}
	benches := o.benchmarks()
	// One batch: every variant × benchmark cell, then the communication-
	// latency and disabled-cluster measurement runs.
	var reqs []runner.Request
	for _, v := range variants {
		for _, b := range benches {
			cfg := pipeline.DefaultConfig()
			cfg.Cache = v.cache
			v.mutate(&cfg)
			reqs = append(reqs, o.request("ablate-"+v.name, b, cfg, o.Window(b)))
		}
	}
	explore, err := columnPolicy("explore")
	if err != nil {
		return nil, err
	}
	commBase := len(reqs)
	for _, b := range benches {
		reqs = append(reqs, o.request("ablate-comm", b, pipeline.DefaultConfig(), o.Window(b)))
		req, err := o.policyRequest("ablate-disabled", b, pipeline.DefaultConfig(), explore)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	rs, err := o.sweep("ablate", reqs)
	if rs == nil {
		return nil, err
	}

	var centralBase, distBase float64
	for vi, v := range variants {
		var ipcs []float64
		for bi := range benches {
			if r := rs[vi*len(benches)+bi]; !failed(r) {
				ipcs = append(ipcs, r.IPC())
			}
		}
		gm := geomean(ipcs)
		base := centralBase
		if v.cache == pipeline.DecentralizedCache {
			base = distBase
		}
		vs := "-"
		switch v.name {
		case "central-base":
			centralBase = gm
		case "dist-base":
			distBase = gm
		default:
			if base > 0 && gm > 0 {
				vs = fmt.Sprintf("%+.1f%%", 100*(gm/base-1))
			}
		}
		t.Rows = append(t.Rows, Row{Name: v.name, Cells: []Cell{
			numOrDash(gm, 2), Str(vs), Str(v.paper),
		}})
	}

	// Communication latency and disabled-cluster statistics (over the runs
	// that survived, in a salvaged sweep).
	var regLat []float64
	var disabled []float64
	for bi := range benches {
		r := rs[commBase+2*bi]
		if !failed(r) && r.RegTransfers > 0 {
			regLat = append(regLat, r.AvgRegCommLatency())
		}
		re := rs[commBase+2*bi+1]
		if !failed(re) {
			disabled = append(disabled, 16-re.AvgActiveClusters())
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"avg inter-cluster register communication latency at 16 clusters: %.1f cycles (paper: 4.1)",
		mean(regLat)))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"avg clusters disabled by the exploration scheme: %.1f of 16 (paper: 8.3)",
		mean(disabled)))
	return t, err
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
