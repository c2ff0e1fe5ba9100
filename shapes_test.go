package clustersim_test

import (
	"testing"

	"clustersim"
)

// TestPaperShapes pins the qualitative results the reproduction must
// preserve (DESIGN.md §4: "who wins, by roughly what factor, where the
// crossovers fall"). Loose thresholds keep it robust to re-calibration
// while still catching regressions that would invalidate the reproduction.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration test")
	}

	static := func(bench string, n int, window uint64) float64 {
		res, err := clustersim.Run(bench, 1, staticConfig(n), nil, window)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC()
	}

	t.Run("Fig3-FP-prefers-wide", func(t *testing.T) {
		// Distant-ILP programs gain from 16 clusters despite the
		// communication cost.
		for _, b := range []string{"swim", "mgrid", "djpeg"} {
			w4, w16 := static(b, 4, 400_000), static(b, 16, 400_000)
			if w16 <= w4 {
				t.Errorf("%s: 16 clusters (%.2f) not better than 4 (%.2f)", b, w16, w4)
			}
		}
	})

	t.Run("Fig3-int-prefers-narrow", func(t *testing.T) {
		// Communication-bound integer programs lose at 16 clusters —
		// the phenomenon the paper calls "hitherto unobserved". The
		// window must cover each program's full phase cycle.
		for _, b := range []string{"vpr", "crafty"} {
			w4, w16 := static(b, 4, 600_000), static(b, 16, 600_000)
			if w4 <= w16 {
				t.Errorf("%s: 4 clusters (%.2f) not better than 16 (%.2f)", b, w4, w16)
			}
		}
	})

	t.Run("Fig5-gzip-dynamic-beats-static", func(t *testing.T) {
		// gzip's alternating phases make the adaptive scheme beat every
		// static configuration (§4.2).
		const w = 1_700_000
		s4, s16 := static("gzip", 4, w), static("gzip", 16, w)
		dyn, err := clustersim.Run("gzip", 1, clustersim.DefaultConfig(),
			clustersim.NewExplore(clustersim.ExploreConfig{}), w)
		if err != nil {
			t.Fatal(err)
		}
		best := s4
		if s16 > best {
			best = s16
		}
		if dyn.IPC() <= best {
			t.Errorf("gzip: explore %.2f did not beat best static %.2f", dyn.IPC(), best)
		}
	})

	t.Run("Fig6-finegrain-tracks-or-beats", func(t *testing.T) {
		// The fine-grained scheme recovers djpeg's short phases that the
		// interval scheme misses (§4.4), and helps cjpeg.
		const w = 600_000
		for _, b := range []string{"djpeg", "cjpeg"} {
			ex, err := clustersim.Run(b, 1, clustersim.DefaultConfig(),
				clustersim.NewExplore(clustersim.ExploreConfig{}), w)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := clustersim.Run(b, 1, clustersim.DefaultConfig(),
				clustersim.NewFineGrain(clustersim.FineGrainConfig{}), w)
			if err != nil {
				t.Fatal(err)
			}
			if fg.IPC() < ex.IPC()*0.98 {
				t.Errorf("%s: fg-branch %.2f below explore %.2f", b, fg.IPC(), ex.IPC())
			}
		}
	})

	t.Run("Fig7-short-intervals-hurt-decentralized", func(t *testing.T) {
		// With the decentralized cache every reconfiguration flushes the
		// L1, so a 1K-interval reactive scheme thrashes while the
		// exploration scheme, which minimizes reconfigurations, does not
		// (§5: "there is no benefit from reconfiguring using shorter
		// intervals").
		cfg := clustersim.DefaultConfig()
		cfg.Cache = clustersim.DecentralizedCache
		const w = 500_000
		ex, err := clustersim.Run("gzip", 1, cfg,
			clustersim.NewExplore(clustersim.ExploreConfig{}), w)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := clustersim.Run("gzip", 1, cfg,
			clustersim.NewDistantILP(clustersim.DistantILPConfig{Interval: 1000}), w)
		if err != nil {
			t.Fatal(err)
		}
		if fast.IPC() >= ex.IPC() {
			t.Errorf("dist: 1K-interval scheme (%.2f) should thrash vs explore (%.2f)",
				fast.IPC(), ex.IPC())
		}
		if fast.Mem.FlushWritebacks <= ex.Mem.FlushWritebacks {
			t.Errorf("dist: 1K-interval scheme flushed less (%d) than explore (%d)",
				fast.Mem.FlushWritebacks, ex.Mem.FlushWritebacks)
		}
	})

	t.Run("Sens-doubled-hops-widen-dynamic-win", func(t *testing.T) {
		// §6: doubling the hop cost makes the 16-cluster machine more
		// communication-bound, so narrow configurations gain relative
		// ground for an integer program.
		run := func(hop, n int) float64 {
			cfg := staticConfig(n)
			cfg.HopLatency = hop
			res, err := clustersim.Run("vpr", 1, cfg, nil, 300_000)
			if err != nil {
				t.Fatal(err)
			}
			return res.IPC()
		}
		gap2 := run(2, 4) / run(2, 16)
		gap1 := run(1, 4) / run(1, 16)
		if gap2 <= gap1 {
			t.Errorf("2-cycle hops did not widen the narrow-machine advantage: %.3f vs %.3f", gap2, gap1)
		}
	})
}
