// Package spec defines the declarative workload format: a JSON document (a
// strict subset of YAML, so spec files load in either toolchain) describing
// a synthetic program as a phase list with per-phase instruction-mix,
// dependence and locality profiles, or a multi-programmed mix of such
// programs for the SMT co-schedule studies.
//
// A spec compiles into the synthetic-program engine (engine.Custom). The
// nine built-in benchmarks are themselves specs: specs/<bench>.json,
// embedded in the binary and resolved by name through Builtin.
// Distribution-valued fields (phase lengths, dependence-chain counts) are
// expanded at compile time by deterministic inverse-CDF sampling off
// internal/rng: the same (spec, seed) pair always yields the same program.
//
// The canonical serialization (Serialize) is a fixed point of Parse and is
// what Fingerprint hashes; the fingerprint names the spec in trace headers
// and runner cache keys.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"clustersim/internal/workload/engine"
)

// Version is the spec format version this package reads and writes.
const Version = 1

// Validation bounds. They exist so a fuzzed or hand-edited spec cannot
// drive the compiler into multi-gigabyte allocations or hour-long static
// code generation; all are far above anything the bundled workloads use.
const (
	maxPhases     = 256     // phase list entries
	maxRepeat     = 4096    // per-phase repeat count
	maxExpanded   = 4096    // total phases after repeat expansion
	maxPhaseLen   = 1 << 40 // dynamic instructions per phase
	maxChains     = 1 << 16 // dependence chains
	maxLoopBody   = 1 << 16 // instructions per loop body
	maxLoopIters  = 1 << 20 // iterations per loop
	maxStride     = 1 << 32 // |bytes| between strided accesses
	maxFootprint  = 1 << 40 // bytes touched
	maxBlocks     = 1024    // static basic blocks
	maxCallEvery  = 1 << 20 // blocks between calls
	maxFuncs      = 1024    // static functions
	maxMixEntries = 16      // threads in a mix
)

// Spec is one declarative workload: exactly one of Phases (a single
// program) or Mix (a multi-programmed SMT workload) must be non-empty.
type Spec struct {
	// Version is the format version (must be 1).
	Version int `json:"version"`
	// Name is the workload's benchmark name (Result.Benchmark).
	Name string `json:"name"`
	// Doc is free-form documentation.
	Doc string `json:"doc,omitempty"`
	// Phases is the program's cyclic phase sequence.
	Phases []Phase `json:"phases,omitempty"`
	// Mix is the thread list of a multi-programmed workload.
	Mix []MixEntry `json:"mix,omitempty"`
}

// Phase is one segment of a program: a profile executed for Length dynamic
// instructions (sampled per instance), optionally repeated.
type Phase struct {
	// Name labels the phase ("" defaults to phase<index>).
	Name string `json:"name,omitempty"`
	// Length is the phase's dynamic instruction count (>= 1).
	Length Dist `json:"length"`
	// Repeat expands the phase into this many consecutive instances,
	// each with independently sampled Length and Chains (0 means 1).
	Repeat int `json:"repeat,omitempty"`
	// Profile is the phase's kernel parameters.
	Profile Profile `json:"profile"`
}

// Profile is an engine.Kernel (see that type for semantics and JSON names)
// with Chains distribution-valued: the chain count is the program's mean
// dependence distance, so a distribution here varies the dependence
// structure across repeat instances.
type Profile struct {
	Chains Dist `json:"chains"`
	engine.Kernel
}

// MixEntry is one thread of a multi-programmed workload: either a built-in
// benchmark by name (see Builtin) or an inline phase program.
type MixEntry struct {
	// Bench names a built-in benchmark (exclusive with Phases).
	Bench string `json:"bench,omitempty"`
	// Name labels an inline program (required with Phases).
	Name string `json:"name,omitempty"`
	// Phases is the inline program (exclusive with Bench).
	Phases []Phase `json:"phases,omitempty"`
	// SeedOffset is added to the compile seed so co-run threads of the
	// same program still draw independent streams.
	SeedOffset uint64 `json:"seed_offset,omitempty"`
	// Clusters is an optional fixed-partition allotment hint consumed by
	// smt.FixedPartition (0 = policy decides).
	Clusters int `json:"clusters,omitempty"`
}

// Parse decodes and validates a spec. Unknown fields, trailing data and
// out-of-range values are all errors: a spec drives deterministic
// simulations, so a typo must fail loudly rather than silently select a
// default.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	// json.Decoder stops at the first value; anything but whitespace
	// after it, valid JSON or not, means the file is not one spec document.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses the spec at path.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// Serialize renders the spec in canonical form: two-space-indented JSON
// with a trailing newline, constants as bare numbers, zero-valued optional
// fields omitted. Parse(Serialize(s)) reproduces s, and Serialize is the
// byte stream Fingerprint hashes. It fails only on non-finite floats,
// which Validate rejects first.
func (s *Spec) Serialize() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return append(data, '\n'), nil
}

// Fingerprint hashes the canonical serialization (FNV-1a 64), identifying
// the spec in trace headers, runner cache keys and CLI identity checks.
func (s *Spec) Fingerprint() (uint64, error) {
	data, err := s.Serialize()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// Validate checks the whole document against the format's ranges. Errors
// name the offending phase and field.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: unsupported version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("spec: name is required")
	}
	switch {
	case len(s.Phases) == 0 && len(s.Mix) == 0:
		return fmt.Errorf("spec %s: want phases (a program) or mix (a multi-programmed workload), have neither", s.Name)
	case len(s.Phases) > 0 && len(s.Mix) > 0:
		return fmt.Errorf("spec %s: phases and mix are mutually exclusive", s.Name)
	}
	if len(s.Phases) > 0 {
		return validatePhases(s.Name, s.Phases)
	}
	if len(s.Mix) < 2 {
		return fmt.Errorf("spec %s: a mix needs at least 2 threads, have %d", s.Name, len(s.Mix))
	}
	if len(s.Mix) > maxMixEntries {
		return fmt.Errorf("spec %s: mix has %d threads, limit %d", s.Name, len(s.Mix), maxMixEntries)
	}
	for i, e := range s.Mix {
		switch {
		case e.Bench != "" && len(e.Phases) > 0:
			return fmt.Errorf("spec %s: mix[%d]: bench and phases are mutually exclusive", s.Name, i)
		case e.Bench == "" && len(e.Phases) == 0:
			return fmt.Errorf("spec %s: mix[%d]: want bench (a built-in) or phases (an inline program)", s.Name, i)
		case len(e.Phases) > 0 && e.Name == "":
			return fmt.Errorf("spec %s: mix[%d]: an inline program needs a name", s.Name, i)
		}
		if e.Clusters < 0 || e.Clusters > 16 {
			return fmt.Errorf("spec %s: mix[%d]: clusters %d outside [0,16]", s.Name, i, e.Clusters)
		}
		if len(e.Phases) > 0 {
			if err := validatePhases(fmt.Sprintf("%s mix[%d] (%s)", s.Name, i, e.Name), e.Phases); err != nil {
				return err
			}
		}
	}
	return nil
}

func validatePhases(ctx string, phases []Phase) error {
	if len(phases) > maxPhases {
		return fmt.Errorf("spec %s: %d phases, limit %d", ctx, len(phases), maxPhases)
	}
	expanded := 0
	for i, p := range phases {
		bad := func(format string, args ...any) error {
			name := p.Name
			if name == "" {
				name = fmt.Sprintf("phase%d", i)
			}
			return fmt.Errorf("spec %s: phase %d (%s): %s", ctx, i, name, fmt.Sprintf(format, args...))
		}
		if p.Repeat < 0 || p.Repeat > maxRepeat {
			return bad("repeat %d outside [0,%d]", p.Repeat, maxRepeat)
		}
		rep := p.Repeat
		if rep == 0 {
			rep = 1
		}
		expanded += rep
		if err := p.Length.validate("length"); err != nil {
			return bad("%v", err)
		}
		if p.Length.IsConst() && (p.Length.Value < 1 || p.Length.Value > maxPhaseLen) {
			return bad("length %v outside [1,%d]", p.Length.Value, int64(maxPhaseLen))
		}
		if err := p.Profile.validate(); err != nil {
			return bad("%v", err)
		}
	}
	if expanded > maxExpanded {
		return fmt.Errorf("spec %s: phases expand to %d instances, limit %d", ctx, expanded, maxExpanded)
	}
	return nil
}

func (p *Profile) validate() error {
	if err := p.Chains.validate("chains"); err != nil {
		return err
	}
	if p.Chains.IsConst() && (p.Chains.Value < 1 || p.Chains.Value > maxChains) {
		return fmt.Errorf("chains %v outside [1,%d]", p.Chains.Value, maxChains)
	}
	fracs := []struct {
		name string
		v    float64
	}{
		{"load_frac", p.LoadFrac}, {"store_frac", p.StoreFrac},
		{"branch_frac", p.BranchFrac}, {"mult_frac", p.MultFrac},
		{"cross_frac", p.CrossFrac}, {"fresh_frac", p.FreshFrac},
		{"rand_branch_frac", p.RandBranchFrac}, {"rand_taken_prob", p.RandTakenProb},
		{"addr_dep_frac", p.AddrDepFrac},
	}
	for _, f := range fracs {
		if !(f.v >= 0 && f.v <= 1) { // rejects NaN too
			return fmt.Errorf("%s %v outside [0,1]", f.name, f.v)
		}
	}
	// ReuseFrac is special: 0 selects the engine default and negative
	// disables reuse entirely (see engine.Kernel).
	if !(p.ReuseFrac >= -1 && p.ReuseFrac <= 1) {
		return fmt.Errorf("reuse_frac %v outside [-1,1]", p.ReuseFrac)
	}
	ints := []struct {
		name string
		v    int64
		max  int64
	}{
		{"loop_body", int64(p.LoopBody), maxLoopBody},
		{"loop_iters", int64(p.LoopIters), maxLoopIters},
		{"iter_jitter", int64(p.IterJitter), maxLoopIters},
		{"footprint", p.Footprint, maxFootprint},
		{"static_blocks", int64(p.StaticBlocks), maxBlocks},
		{"call_every", int64(p.CallEvery), maxCallEvery},
		{"funcs", int64(p.Funcs), maxFuncs},
	}
	for _, f := range ints {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("%s %d outside [0,%d]", f.name, f.v, f.max)
		}
	}
	if p.Stride < -maxStride || p.Stride > maxStride {
		return fmt.Errorf("stride %d outside [%d,%d]", p.Stride, int64(-maxStride), int64(maxStride))
	}
	return nil
}
