// Package policy makes the paper's reconfiguration controllers first-class
// experiment subjects: named, parameter-serializable policy specs, a
// decision-trace recorder with a counterfactual replay engine, multi-
// objective fitness scoring, and a deterministic tournament search over
// controller parameter space.
//
// The paper's central result is that *which* policy runs — interval
// exploration (§4.2), distant-ILP thresholds (§4.3) or fine-grained
// per-branch tables (§4.4) — dominates performance. This package turns the
// concrete controller types in internal/core into data: a Spec is a strict
// JSON document (mirroring internal/spec's conventions: canonical
// serialization, FNV-1a fingerprint) that names a controller family and its
// parameters. Instantiate turns it into one run: the machine configuration,
// a fresh pipeline.Controller, and the fingerprint the runner folds into its
// content-addressed cache key via runner.Request.PolicyKey. The static
// family is a configuration rather than a controller.
package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"sort"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
)

// Version is the policy-spec format version this package reads and writes.
const Version = 1

// Controller family names accepted in Spec.Name.
const (
	FamilyStatic     = "static"
	FamilyExplore    = "explore"
	FamilyDistantILP = "distant-ilp"
	FamilyFineGrain  = "fine-grain"
)

// Spec is one serializable controller description: a family name plus that
// family's parameters. Zero-valued parameters select the paper's constants
// (each family's setDefaults), so the empty Params is always valid.
type Spec struct {
	// Version is the format version (must be 1).
	Version int
	// Name selects the controller family: "static", "explore",
	// "distant-ilp" or "fine-grain".
	Name string
	// Doc is free-form documentation.
	Doc string
	// Params holds the family's parameters; fields belonging to other
	// families must stay zero.
	Params Params
}

// Params holds one field per family. The controller families' fields are
// the configs internal/core builds them from: each parameter is defined there.
type Params struct {
	Static     Static
	Explore    core.ExploreConfig
	DistantILP core.DistantILPConfig
	FineGrain  core.FineGrainConfig
}

// Static is the static family's parameter.
type Static struct {
	// Clusters pins the active-cluster count (>= 1).
	Clusters int `json:"clusters,omitempty"`
}

// family describes one registered controller family.
type family struct {
	// params returns a pointer to the family's field of p.
	params func(p *Params) any
	// build constructs a fresh controller instance from the parameters
	// (nil for static, which has no controller).
	build func(p *Params) pipeline.Controller
}

// families is the registry. Keys are Spec.Name values; iteration always
// goes through Families() (collect-then-sort), never a raw range.
var families = map[string]family{
	FamilyStatic: {
		params: func(p *Params) any { return &p.Static },
	},
	FamilyExplore: {
		params: func(p *Params) any { return &p.Explore },
		build: func(p *Params) pipeline.Controller {
			cfg := p.Explore
			cfg.Configs = slices.Clone(cfg.Configs)
			return core.NewExplore(cfg)
		},
	},
	FamilyDistantILP: {
		params: func(p *Params) any { return &p.DistantILP },
		build:  func(p *Params) pipeline.Controller { return core.NewDistantILP(p.DistantILP) },
	},
	FamilyFineGrain: {
		params: func(p *Params) any { return &p.FineGrain },
		build:  func(p *Params) pipeline.Controller { return core.NewFineGrain(p.FineGrain) },
	},
}

// specFile is Spec's file form.
type specFile struct {
	Version int             `json:"version"`
	Name    string          `json:"name"`
	Doc     string          `json:"doc,omitempty"`
	Params  json.RawMessage `json:"params"`
}

// MarshalJSON writes the family's parameters as the "params" object ({}
// when all are zero). A spec Validate rejects has no file form.
func (s Spec) MarshalJSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	params, err := json.Marshal(families[s.Name].params(&s.Params))
	if err != nil {
		return nil, err
	}
	return json.Marshal(specFile{Version: s.Version, Name: s.Name, Doc: s.Doc, Params: params})
}

// UnmarshalJSON reads the file form strictly: an unknown key is an error
// that names it. An unknown family's params stay unread; Validate fails.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var f specFile
	if err := decodeStrict(data, &f); err != nil {
		return err
	}
	*s = Spec{Version: f.Version, Name: f.Name, Doc: f.Doc}
	if fam, ok := families[f.Name]; ok && f.Params != nil {
		return decodeStrict(f.Params, fam.params(&s.Params))
	}
	return nil
}

// decodeStrict decodes the one JSON value in data into v. Unknown fields
// and anything but white space after the value are errors.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after spec document")
	}
	return nil
}

// Families returns the registered family names, sorted.
func Families() []string {
	var names []string
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Parse decodes and validates a policy spec. Unknown fields, trailing data
// and out-of-range values are all errors.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses the policy spec at path.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// Validate checks the spec against the registry and its family's parameter
// vocabulary: setting another family's parameters is an error naming them.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("policy: unsupported version %d (this build reads version %d)", s.Version, Version)
	}
	if _, ok := families[s.Name]; !ok {
		return fmt.Errorf("policy: unknown family %q (have %v)", s.Name, Families())
	}
	if s.Name == FamilyStatic && s.Params.Static.Clusters < 1 {
		return fmt.Errorf("policy: static needs clusters >= 1, have %d", s.Params.Static.Clusters)
	}
	// Every parameter is omitempty, so another family's params marshal
	// to "{}" unless one is set, and then show it under its spec key.
	for _, name := range Families() {
		params, err := json.Marshal(families[name].params(&s.Params))
		if err != nil {
			return fmt.Errorf("policy: %w", err)
		}
		if name != s.Name && string(params) != "{}" {
			return fmt.Errorf("policy: parameters outside the %s family: %s", s.Name, params)
		}
	}
	return nil
}

// Instantiate turns the spec into one run on machine cfg: the configuration
// to simulate, a fresh controller (controllers are stateful, so every run
// needs its own), and the controller's cache key for
// runner.Request.PolicyKey. A static spec is a configuration, not a
// controller: cfg with ActiveClusters = Clusters, a nil controller and an
// empty key, the very request a fixed organization issues without a spec.
//
// On the decentralized cache, whose banks interleave by masking, every
// cluster count the spec names must be a power of two.
func (s *Spec) Instantiate(cfg pipeline.Config) (pipeline.Config, pipeline.Controller, string, error) {
	if err := s.Validate(); err != nil {
		return cfg, nil, "", err
	}
	if cfg.Cache == pipeline.DecentralizedCache {
		p := s.Params
		for _, n := range append([]int{p.Static.Clusters, p.DistantILP.Narrow, p.DistantILP.Wide,
			p.FineGrain.Narrow, p.FineGrain.Wide}, p.Explore.Configs...) {
			if n&(n-1) != 0 {
				return cfg, nil, "", fmt.Errorf("policy: %s: the decentralized cache needs power-of-two cluster counts, have %d", s.Name, n)
			}
		}
	}
	if s.Name == FamilyStatic {
		cfg.ActiveClusters = s.Params.Static.Clusters
		return cfg, nil, "", nil
	}
	key, err := s.Key()
	if err != nil {
		return cfg, nil, "", err
	}
	return cfg, families[s.Name].build(&s.Params), key, nil
}

// Serialize renders the spec in canonical form: two-space-indented JSON
// with a trailing newline, zero-valued optional fields omitted.
// Parse(Serialize(s)) reproduces s, and Serialize is the byte stream
// Fingerprint hashes.
func (s *Spec) Serialize() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	return append(data, '\n'), nil
}

// Fingerprint hashes the canonical serialization (FNV-1a 64). It identifies
// the policy in leaderboards and runner cache keys.
func (s *Spec) Fingerprint() (uint64, error) {
	data, err := s.Serialize()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// Key returns the string form of the fingerprint for
// runner.Request.PolicyKey, making two parameterizations of the same
// family distinct cache entries even when Controller.Name() coincides.
func (s *Spec) Key() (string, error) {
	fp, err := s.Fingerprint()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("policy:%016x", fp), nil
}

// Paper returns the built-in spec for one of the paper's controllers:
// "explore" (§4.2 defaults), "distant-ilp" (§4.3, 1K interval),
// "fine-grain" (§4.4 branch scheme), "fine-grain-cr" (call/return
// variant), or "static-N".
func Paper(name string) (*Spec, error) {
	switch name {
	case "explore":
		return &Spec{Version: Version, Name: FamilyExplore,
			Doc: "§4.2 interval exploration, paper constants"}, nil
	case "distant-ilp":
		return &Spec{Version: Version, Name: FamilyDistantILP,
			Doc: "§4.3 distant-ILP thresholds, 1K interval"}, nil
	case "fine-grain":
		return &Spec{Version: Version, Name: FamilyFineGrain,
			Doc: "§4.4 per-branch reconfiguration table"}, nil
	case "fine-grain-cr":
		return &Spec{Version: Version, Name: FamilyFineGrain,
			Doc:    "§4.4 call/return variant",
			Params: Params{FineGrain: core.FineGrainConfig{CallReturnOnly: true}}}, nil
	}
	var n int
	if _, err := fmt.Sscanf(name, "static-%d", &n); err == nil && n >= 1 {
		return &Spec{Version: Version, Name: FamilyStatic,
			Doc:    fmt.Sprintf("fixed %d-cluster machine", n),
			Params: Params{Static: Static{Clusters: n}}}, nil
	}
	return nil, fmt.Errorf("policy: unknown paper policy %q (have explore, distant-ilp, fine-grain, fine-grain-cr, static-N)", name)
}
