// Package workload names the instruction streams the simulator runs.
//
// The paper evaluates nine programs — four SPEC2K integer (crafty, gzip,
// parser, vpr), three SPEC2K floating-point (galgel, mgrid, swim) and two
// Mediabench (cjpeg, djpeg) — none of which can be run here (no Alpha
// binaries, no Simplescalar, no reference inputs). The dynamic-tuning
// algorithms under study, however, observe a program only through a handful
// of metrics: IPC, branch and memory-reference frequency, branch
// predictability, the degree of *distant ILP* (instructions issued while far
// behind the ROB head) and how all of those vary over time (phase
// behaviour). Each benchmark is therefore a deterministic synthetic program
// engineered to match the paper's published characteristics for it:
//
//   - Table 3: baseline IPC class and branch-mispredict interval;
//   - Table 4: phase structure (minimum stable interval length and
//     instability at 10K-instruction intervals);
//   - §4 narrative: which programs have distant ILP (djpeg, swim, mgrid,
//     galgel), which alternate between distant-ILP and low-ILP phases
//     (gzip), and which have fine-grained phases (djpeg, cjpeg).
//
// The nine benchmarks are defined once, as the checked-in spec files
// specs/<bench>.json, which internal/spec embeds and compiles; New and
// Benchmarks resolve names through it. docs/WORKLOADS.md records how each
// spec was calibrated. Phase lengths are scaled ~10x down from the paper's
// (our simulation windows are millions, not hundreds of millions, of
// instructions); the ratio of phase length to measurement interval — the
// quantity the algorithms are sensitive to — is preserved. The generator
// engine itself lives in internal/workload/engine.
package workload

import (
	"clustersim/internal/spec"
	"clustersim/internal/workload/engine"
)

// Generator produces a deterministic committed-path instruction stream.
// Implementations are not safe for concurrent use.
type Generator = engine.Generator

// PaperData records the published characteristics a synthetic benchmark
// targets, for the EXPERIMENTS.md paper-vs-measured comparison.
type PaperData struct {
	// Suite is the benchmark's origin (SPEC2k Int, SPEC2k FP, Mediabench).
	Suite string
	// BaseIPC is Table 3's monolithic-processor IPC.
	BaseIPC float64
	// MispredictInterval is Table 3's instructions per branch mispredict.
	MispredictInterval float64
	// MinStableInterval is Table 4's minimum acceptable interval length
	// (instructions), in the paper's (unscaled) terms.
	MinStableInterval float64
	// InstabilityAt10K is Table 4's instability factor (percent) for a
	// 10K-instruction interval.
	InstabilityAt10K float64
	// PrefersWide reports whether Figure 3 shows the benchmark gaining
	// from 16 clusters (distant ILP).
	PrefersWide bool
}

var paperData = map[string]PaperData{
	"cjpeg":  {Suite: "Mediabench", BaseIPC: 2.06, MispredictInterval: 82, MinStableInterval: 40e3, InstabilityAt10K: 9, PrefersWide: false},
	"crafty": {Suite: "SPEC2k Int", BaseIPC: 1.85, MispredictInterval: 118, MinStableInterval: 320e3, InstabilityAt10K: 30, PrefersWide: false},
	"djpeg":  {Suite: "Mediabench", BaseIPC: 4.07, MispredictInterval: 249, MinStableInterval: 1.28e6, InstabilityAt10K: 31, PrefersWide: true},
	"galgel": {Suite: "SPEC2k FP", BaseIPC: 3.43, MispredictInterval: 88, MinStableInterval: 10e3, InstabilityAt10K: 1, PrefersWide: true},
	"gzip":   {Suite: "SPEC2k Int", BaseIPC: 1.83, MispredictInterval: 87, MinStableInterval: 10e3, InstabilityAt10K: 4, PrefersWide: false},
	"mgrid":  {Suite: "SPEC2k FP", BaseIPC: 2.28, MispredictInterval: 8977, MinStableInterval: 10e3, InstabilityAt10K: 0, PrefersWide: true},
	"parser": {Suite: "SPEC2k Int", BaseIPC: 1.42, MispredictInterval: 88, MinStableInterval: 40e6, InstabilityAt10K: 12, PrefersWide: false},
	"swim":   {Suite: "SPEC2k FP", BaseIPC: 1.67, MispredictInterval: 22600, MinStableInterval: 10e3, InstabilityAt10K: 0, PrefersWide: true},
	"vpr":    {Suite: "SPEC2k Int", BaseIPC: 1.20, MispredictInterval: 171, MinStableInterval: 320e3, InstabilityAt10K: 14, PrefersWide: false},
}

// Benchmarks returns the sorted benchmark names.
func Benchmarks() []string { return spec.Builtins() }

// Paper returns the published characteristics for a benchmark name.
func Paper(name string) (PaperData, bool) {
	p, ok := paperData[name]
	return p, ok
}

// New returns the named benchmark's generator, seeded deterministically.
// The same (name, seed) pair always yields the identical stream.
func New(name string, seed uint64) (Generator, error) {
	s, err := spec.Builtin(name)
	if err != nil {
		return nil, err
	}
	return spec.Compile(s, seed)
}

// MustNew is New but panics on an unknown name.
func MustNew(name string, seed uint64) Generator {
	g, err := New(name, seed)
	if err != nil {
		panic(err)
	}
	return g
}
