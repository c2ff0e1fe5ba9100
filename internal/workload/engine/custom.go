package engine

import "fmt"

// Kernel parameterizes the instruction-level behaviour of one program phase.
// Zero values select the engine defaults noted per field; fractions are
// probabilities in [0,1].
//
// The execution model: dynamic instructions are assigned round-robin to
// Chains independent serial dependence chains — every operation in a chain
// depends on the chain's previous operation. Chains is therefore the ILP
// knob: a wide window can issue from up to Chains chains at once, and
// distant ILP (the paper's window>120 metric) appears exactly when Chains is
// large and branches are predictable enough to keep the window full.
type Kernel struct {
	// Chains is the number of independent serial dependence chains (>= 1).
	// A spec states it as a distribution (spec.Profile.Chains).
	Chains int `json:"-"`
	// FP selects a floating-point-dominated arithmetic mix.
	FP bool `json:"fp,omitempty"`
	// LoadFrac, StoreFrac and BranchFrac are the fractions of body
	// instructions that are loads, stores and forward conditional
	// branches; the remainder is arithmetic.
	LoadFrac   float64 `json:"load_frac,omitempty"`
	StoreFrac  float64 `json:"store_frac,omitempty"`
	BranchFrac float64 `json:"branch_frac,omitempty"`
	// MultFrac is the fraction of arithmetic that uses the multiplier.
	MultFrac float64 `json:"mult_frac,omitempty"`
	// CrossFrac is the probability an operation reads a second operand
	// from a neighbouring chain (inter-chain — and once steered,
	// inter-cluster — communication).
	CrossFrac float64 `json:"cross_frac,omitempty"`
	// FreshFrac is the probability a chain operand is architected
	// (distance 0), briefly breaking the chain.
	FreshFrac float64 `json:"fresh_frac,omitempty"`
	// LoopBody is the number of instructions per innermost loop
	// iteration (one static basic block, including its loop branch).
	LoopBody int `json:"loop_body,omitempty"`
	// LoopIters is the innermost trip count; the loop-exit branch
	// mispredicts once per exit unless the trip count fits predictor
	// history.
	LoopIters int `json:"loop_iters,omitempty"`
	// IterJitter randomizes the trip count by ±IterJitter, making loop
	// exits unpredictable (integer-code behaviour).
	IterJitter int `json:"iter_jitter,omitempty"`
	// RandBranchFrac is the fraction of forward branches whose outcome
	// is data-dependent (random), and RandTakenProb their taken
	// probability; these set the floor of the mispredict rate.
	RandBranchFrac float64 `json:"rand_branch_frac,omitempty"`
	RandTakenProb  float64 `json:"rand_taken_prob,omitempty"`
	// Stride is the byte stride of successive memory references in a
	// chain; Footprint is the total data footprint in bytes (split
	// across chains); RandomAddr replaces striding with uniform random
	// addresses; Chase makes each load's address depend on the chain's
	// previous load (pointer chasing).
	Stride     int64 `json:"stride,omitempty"`
	Footprint  int64 `json:"footprint,omitempty"`
	RandomAddr bool  `json:"random_addr,omitempty"`
	Chase      bool  `json:"chase,omitempty"`
	// AddrDepFrac is the probability a load's address is computed from
	// the chain (exposing memory latency on the chain) rather than an
	// induction variable (letting the load issue far ahead of use).
	// Streaming FP code strength-reduces addresses (low values); integer
	// code computes them (high values). Zero means the engine default.
	AddrDepFrac float64 `json:"addr_dep_frac,omitempty"`
	// ReuseFrac is the probability a strided access re-touches one of
	// the chain's recently visited words instead of advancing (stencil-
	// style temporal locality). Zero selects the engine default (0.35);
	// negative disables reuse.
	ReuseFrac float64 `json:"reuse_frac,omitempty"`
	// StaticBlocks is the number of distinct basic blocks (code
	// footprint); execution cycles through them.
	StaticBlocks int `json:"static_blocks,omitempty"`
	// CallEvery, when nonzero, inserts a subroutine call after every
	// CallEvery-th block, rotating over Funcs function bodies.
	CallEvery int `json:"call_every,omitempty"`
	Funcs     int `json:"funcs,omitempty"`
}

// Phase is one phase of a program: a kernel executed for Length dynamic
// instructions before the program cycles to the next phase.
type Phase struct {
	Name   string
	Length int64
	Kernel Kernel
}

// Custom builds a generator for a synthetic program: a named cyclic
// sequence of phases. Fractions outside [0,1] are clamped and unnamed
// phases are labelled phase<index>. The same (phases, seed) pair always
// yields the identical stream.
func Custom(name string, phases []Phase, seed uint64) (Generator, error) {
	if name == "" {
		return nil, fmt.Errorf("workload: custom program needs a name")
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: custom program %q needs at least one phase", name)
	}
	p := make([]Phase, len(phases))
	for i, ph := range phases {
		if ph.Length < 1 {
			return nil, fmt.Errorf("workload: %s phase %d: Length must be >= 1, got %d", name, i, ph.Length)
		}
		if ph.Kernel.Chains < 1 {
			return nil, fmt.Errorf("workload: %s phase %d: Chains must be >= 1, got %d", name, i, ph.Kernel.Chains)
		}
		k := &ph.Kernel
		for _, f := range []*float64{
			&k.LoadFrac, &k.StoreFrac, &k.BranchFrac, &k.MultFrac, &k.CrossFrac,
			&k.FreshFrac, &k.RandBranchFrac, &k.RandTakenProb, &k.AddrDepFrac,
		} {
			*f = clamp01(*f)
		}
		if ph.Name == "" {
			ph.Name = fmt.Sprintf("phase%d", i)
		}
		p[i] = ph
	}
	return newEngine(name, p, seed), nil
}

func clamp01(f float64) float64 {
	switch {
	case f < 0 || f != f: // negative or NaN
		return 0
	case f > 1:
		return 1
	}
	return f
}
