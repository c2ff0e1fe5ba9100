// Benchmarks regenerating the paper's tables and figures, one testing.B
// benchmark per artifact. Each b.Run sub-benchmark simulates one cell of
// the corresponding table/figure at a reduced window (Scale 0.1; use
// cmd/experiments for full-scale runs) and reports the measured IPC as a
// custom metric alongside simulation throughput.
package clustersim_test

import (
	"testing"

	"clustersim"
	"clustersim/internal/experiments"
)

// benchOpts is the reduced scale used inside testing.B loops.
const benchScale = 0.1

// simulate runs one benchmark/controller cell b.N times (the instruction
// window is fixed; b.N repeats whole runs) and reports IPC.
func simulate(b *testing.B, bench string, cfg clustersim.Config, mk func() clustersim.Controller, window uint64) {
	b.Helper()
	var ipc float64
	var instrs uint64
	for i := 0; i < b.N; i++ {
		ctrl := mk()
		res, err := clustersim.Run(bench, 1, cfg, ctrl, window)
		if err != nil {
			b.Fatal(err)
		}
		ipc = res.IPC()
		instrs += res.Instructions
	}
	b.ReportMetric(ipc, "IPC")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func opts() experiments.Options { return experiments.Options{Scale: benchScale} }

func window(bench string) uint64 { return opts().Window(bench) }

// BenchmarkTable3 regenerates the benchmark characterization (paper Table
// 3): monolithic-machine IPC per benchmark.
func BenchmarkTable3(b *testing.B) {
	for _, bench := range clustersim.Benchmarks() {
		b.Run(bench, func(b *testing.B) {
			simulate(b, bench, clustersim.MonolithicConfig(),
				func() clustersim.Controller { return nil }, window(bench))
		})
	}
}

// BenchmarkFig3 regenerates Figure 3: statically fixed 2/4/8/16-cluster
// organizations.
func BenchmarkFig3(b *testing.B) {
	for _, bench := range clustersim.Benchmarks() {
		for _, n := range []int{2, 4, 8, 16} {
			n := n
			b.Run(bench+"/clusters-"+itoa(n), func(b *testing.B) {
				cfg := clustersim.DefaultConfig()
				cfg.ActiveClusters = n
				simulate(b, bench, cfg, func() clustersim.Controller { return nil }, window(bench))
			})
		}
	}
}

// BenchmarkTable4 regenerates the instability analysis (paper Table 4):
// metric-trace recording plus the instability computation.
func BenchmarkTable4(b *testing.B) {
	for _, bench := range clustersim.Benchmarks() {
		b.Run(bench, func(b *testing.B) {
			var factor float64
			for i := 0; i < b.N; i++ {
				rec := clustersim.NewRecorder(10_000)
				_, err := clustersim.Run(bench, 1, clustersim.DefaultConfig(), rec, 2*window(bench))
				if err != nil {
					b.Fatal(err)
				}
				factor = clustersim.Instability(rec.Intervals())
			}
			b.ReportMetric(factor, "instability%")
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: the interval-based schemes on the
// centralized cache.
func BenchmarkFig5(b *testing.B) {
	schemes := []struct {
		name string
		mk   func() clustersim.Controller
	}{
		{"static-4", func() clustersim.Controller { return clustersim.NewStatic(4) }},
		{"static-16", func() clustersim.Controller { return clustersim.NewStatic(16) }},
		{"explore", func() clustersim.Controller { return clustersim.NewExplore(clustersim.ExploreConfig{}) }},
		{"dilp-500", func() clustersim.Controller {
			return clustersim.NewDistantILP(clustersim.DistantILPConfig{Interval: 500})
		}},
		{"dilp-1K", func() clustersim.Controller {
			return clustersim.NewDistantILP(clustersim.DistantILPConfig{Interval: 1000})
		}},
		{"dilp-10K", func() clustersim.Controller {
			return clustersim.NewDistantILP(clustersim.DistantILPConfig{Interval: 10_000})
		}},
	}
	for _, bench := range clustersim.Benchmarks() {
		for _, s := range schemes {
			s := s
			b.Run(bench+"/"+s.name, func(b *testing.B) {
				simulate(b, bench, clustersim.DefaultConfig(), s.mk, window(bench))
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: fine-grained reconfiguration.
func BenchmarkFig6(b *testing.B) {
	schemes := []struct {
		name string
		mk   func() clustersim.Controller
	}{
		{"explore", func() clustersim.Controller { return clustersim.NewExplore(clustersim.ExploreConfig{}) }},
		{"fg-branch", func() clustersim.Controller { return clustersim.NewFineGrain(clustersim.FineGrainConfig{}) }},
		{"fg-callreturn", func() clustersim.Controller {
			return clustersim.NewFineGrain(clustersim.FineGrainConfig{CallReturnOnly: true})
		}},
	}
	for _, bench := range clustersim.Benchmarks() {
		for _, s := range schemes {
			s := s
			b.Run(bench+"/"+s.name, func(b *testing.B) {
				simulate(b, bench, clustersim.DefaultConfig(), s.mk, window(bench))
			})
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: the decentralized cache model.
func BenchmarkFig7(b *testing.B) {
	schemes := []struct {
		name string
		mk   func() clustersim.Controller
	}{
		{"static-4", func() clustersim.Controller { return clustersim.NewStatic(4) }},
		{"static-16", func() clustersim.Controller { return clustersim.NewStatic(16) }},
		{"explore", func() clustersim.Controller { return clustersim.NewExplore(clustersim.ExploreConfig{}) }},
		{"dilp-10K", func() clustersim.Controller {
			return clustersim.NewDistantILP(clustersim.DistantILPConfig{Interval: 10_000})
		}},
	}
	for _, bench := range clustersim.Benchmarks() {
		for _, s := range schemes {
			s := s
			b.Run(bench+"/"+s.name, func(b *testing.B) {
				cfg := clustersim.DefaultConfig()
				cfg.Cache = clustersim.DecentralizedCache
				simulate(b, bench, cfg, s.mk, window(bench))
			})
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: the grid interconnect.
func BenchmarkFig8(b *testing.B) {
	schemes := []struct {
		name string
		mk   func() clustersim.Controller
	}{
		{"static-4", func() clustersim.Controller { return clustersim.NewStatic(4) }},
		{"static-16", func() clustersim.Controller { return clustersim.NewStatic(16) }},
		{"explore", func() clustersim.Controller { return clustersim.NewExplore(clustersim.ExploreConfig{}) }},
	}
	for _, bench := range clustersim.Benchmarks() {
		for _, s := range schemes {
			s := s
			b.Run(bench+"/"+s.name, func(b *testing.B) {
				cfg := clustersim.DefaultConfig()
				cfg.Topology = clustersim.GridTopology
				simulate(b, bench, cfg, s.mk, window(bench))
			})
		}
	}
}

// BenchmarkSensitivity regenerates the §6 parameter sweeps on a
// representative benchmark pair.
func BenchmarkSensitivity(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*clustersim.Config)
	}{
		{"fewer-resources", func(c *clustersim.Config) { c.IQPerCluster = 10; c.RegsPerCluster = 20 }},
		{"more-resources", func(c *clustersim.Config) { c.IQPerCluster = 20; c.RegsPerCluster = 40 }},
		{"more-FUs", func(c *clustersim.Config) { c.IntALU, c.IntMulDiv, c.FPALU, c.FPMulDiv = 2, 2, 2, 2 }},
		{"2-cycle-hops", func(c *clustersim.Config) { c.HopLatency = 2 }},
	}
	for _, bench := range []string{"gzip", "swim"} {
		for _, v := range variants {
			v := v
			b.Run(bench+"/"+v.name, func(b *testing.B) {
				cfg := clustersim.DefaultConfig()
				v.mutate(&cfg)
				simulate(b, bench, cfg,
					func() clustersim.Controller { return clustersim.NewExplore(clustersim.ExploreConfig{}) },
					window(bench))
			})
		}
	}
}

// BenchmarkAblations regenerates the §4/§5 in-text idealization studies.
func BenchmarkAblations(b *testing.B) {
	variants := []struct {
		name   string
		mutate func(*clustersim.Config)
	}{
		{"central-base", func(c *clustersim.Config) {}},
		{"central-free-ldst", func(c *clustersim.Config) { c.FreeLoadComm = true }},
		{"central-free-reg", func(c *clustersim.Config) { c.FreeRegComm = true }},
		{"dist-base", func(c *clustersim.Config) { c.Cache = clustersim.DecentralizedCache }},
		{"dist-perfect-banks", func(c *clustersim.Config) {
			c.Cache = clustersim.DecentralizedCache
			c.PerfectBankPred = true
		}},
		{"dist-free-reg", func(c *clustersim.Config) {
			c.Cache = clustersim.DecentralizedCache
			c.FreeRegComm = true
		}},
	}
	for _, bench := range []string{"swim", "vpr"} {
		for _, v := range variants {
			v := v
			b.Run(bench+"/"+v.name, func(b *testing.B) {
				cfg := clustersim.DefaultConfig()
				v.mutate(&cfg)
				simulate(b, bench, cfg, func() clustersim.Controller { return nil }, window(bench))
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (not a paper
// artifact; a regression guard for the engine itself) on every bundled
// benchmark. The plain sub-benchmarks run the default event-driven stepper;
// the /legacy variants run the seed per-cycle scan stepper, so one run
// compares the two steppers on one machine. Read its ns/op directly: it is
// never a speed claim (clusterbench, bench/README.md, measures those), and
// internal/pipeline's TestSteadyStateAllocBudget pins the allocations.
func BenchmarkSimulatorThroughput(b *testing.B) {
	throughput := func(b *testing.B, bench string, legacy bool) {
		gen, err := clustersim.NewWorkload(bench, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := clustersim.DefaultConfig()
		cfg.LegacyStepper = legacy
		p, err := clustersim.NewProcessor(cfg, gen, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(10_000); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*10_000/b.Elapsed().Seconds()/1e6, "Minstr/s")
	}
	for _, bench := range clustersim.Benchmarks() {
		b.Run(bench, func(b *testing.B) { throughput(b, bench, false) })
	}
	for _, bench := range clustersim.Benchmarks() {
		b.Run(bench+"/legacy", func(b *testing.B) { throughput(b, bench, true) })
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
