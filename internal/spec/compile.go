package spec

import (
	"fmt"

	"clustersim/internal/rng"
	"clustersim/internal/workload/engine"
)

// expandSalt decorrelates the expansion RNG (which samples phase lengths
// and chain counts) from the engine's compile and run streams, which derive
// from the same seed with their own salts.
const expandSalt = 0xD157_5EED_CA5C_ADE5

// Compile builds the spec's generator: distribution-valued fields are
// expanded by inverse-CDF sampling off rng.New(seed ^ expandSalt) — phases
// in order, length then chains per instance; constants consume no draws —
// and the expanded phase list feeds engine.Custom under the same seed.
// An all-constant spec therefore compiles to exactly the phase list it
// spells out.
//
// Mix specs describe multiple threads, not one program; compile those with
// CompileMix.
func Compile(s *Spec, seed uint64) (engine.Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Mix) > 0 {
		return nil, fmt.Errorf("spec %s: a mix describes %d threads, not one program (use CompileMix)", s.Name, len(s.Mix))
	}
	phases := expandPhases(s.Phases, seed)
	return engine.Custom(s.Name, phases, seed)
}

// expandPhases samples every distribution-valued field into a concrete
// engine phase list. The draw order is part of the format's contract
// (documented on Compile): phases in declaration order, each repeat
// instance drawing length first, then chains.
func expandPhases(phases []Phase, seed uint64) []engine.Phase {
	r := rng.New(seed ^ expandSalt)
	out := make([]engine.Phase, 0, len(phases))
	for _, p := range phases {
		rep := p.Repeat
		if rep == 0 {
			rep = 1
		}
		for j := 0; j < rep; j++ {
			name := p.Name
			if rep > 1 && name != "" {
				name = fmt.Sprintf("%s#%d", name, j)
			}
			length := p.Length.SampleInt(r, 1, maxPhaseLen)
			chains := int(p.Profile.Chains.SampleInt(r, 1, maxChains))
			out = append(out, engine.Phase{
				Name:   name,
				Length: length,
				Kernel: p.Profile.kernel(chains),
			})
		}
	}
	return out
}

// kernel converts the profile to the engine kernel with the sampled chain
// count substituted.
func (p *Profile) kernel(chains int) engine.Kernel {
	k := p.Kernel
	k.Chains = chains
	return k
}

// MixThread is one compiled thread of a mix spec, ready for smt.New via
// smt.Thread{Gen: t.Gen, Bench: t.Name, Seed: t.Seed}.
type MixThread struct {
	// Name labels the thread (benchmark name or inline program name).
	Name string
	// Seed is the thread's effective seed (compile seed + SeedOffset).
	Seed uint64
	// Clusters is the spec's fixed-partition hint (0 = policy decides).
	Clusters int
	// Gen is the thread's instruction stream.
	Gen engine.Generator
}

// CompileMix builds one generator per mix entry — built-in benchmarks
// resolved through Builtin, inline phase lists as they stand — each compiled
// under seed + SeedOffset.
func CompileMix(s *Spec, seed uint64) ([]MixThread, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Mix) == 0 {
		return nil, fmt.Errorf("spec %s: not a mix spec (use Compile)", s.Name)
	}
	threads := make([]MixThread, 0, len(s.Mix))
	for i, e := range s.Mix {
		sub := &Spec{Version: Version, Name: e.Name, Phases: e.Phases}
		if e.Bench != "" {
			b, err := Builtin(e.Bench)
			if err != nil {
				return nil, fmt.Errorf("spec %s: mix[%d]: %w", s.Name, i, err)
			}
			sub = b
		}
		t := MixThread{Name: sub.Name, Seed: seed + e.SeedOffset, Clusters: e.Clusters}
		gen, err := Compile(sub, t.Seed)
		if err != nil {
			return nil, fmt.Errorf("spec %s: mix[%d]: %w", s.Name, i, err)
		}
		t.Gen = gen
		threads = append(threads, t)
	}
	return threads, nil
}
