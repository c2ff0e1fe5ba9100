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
	"fmt"
	"hash/fnv"
	"os"
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
	Version int `json:"version"`
	// Name selects the controller family: "static", "explore",
	// "distant-ilp" or "fine-grain".
	Name string `json:"name"`
	// Doc is free-form documentation.
	Doc string `json:"doc,omitempty"`
	// Params holds the family's parameters; fields belonging to other
	// families must stay zero.
	Params Params `json:"params,omitempty"`
}

// Params is the union of every family's knobs. Field comments name the
// owning family; Validate rejects a spec that sets another family's fields,
// so a typo fails loudly instead of silently selecting a default.
type Params struct {
	// Clusters pins the active-cluster count (static; >= 1).
	Clusters int `json:"clusters,omitempty"`

	// InitialInterval .. MacroInterval mirror core.ExploreConfig
	// (explore).
	InitialInterval uint64  `json:"initial_interval,omitempty"`
	MaxInterval     uint64  `json:"max_interval,omitempty"`
	IPCDelta        float64 `json:"ipc_delta,omitempty"`
	MetricDelta     float64 `json:"metric_delta,omitempty"`
	Thresh1         float64 `json:"thresh1,omitempty"`
	Thresh2         float64 `json:"thresh2,omitempty"`
	Configs         []int   `json:"configs,omitempty"`
	WarmupIntervals int     `json:"warmup_intervals,omitempty"`
	MacroInterval   uint64  `json:"macro_interval,omitempty"`

	// Interval and DistantThreshold mirror core.DistantILPConfig
	// (distant-ilp). Narrow/Wide are shared with fine-grain.
	Interval         uint64 `json:"interval,omitempty"`
	DistantThreshold uint64 `json:"distant_threshold,omitempty"`

	// EveryNthBranch .. CallReturnOnly mirror core.FineGrainConfig
	// (fine-grain).
	EveryNthBranch int    `json:"every_nth_branch,omitempty"`
	Samples        int    `json:"samples,omitempty"`
	TableSize      int    `json:"table_size,omitempty"`
	Window         int    `json:"window,omitempty"`
	WindowDistant  int    `json:"window_distant,omitempty"`
	FlushInterval  uint64 `json:"flush_interval,omitempty"`
	CallReturnOnly bool   `json:"call_return_only,omitempty"`

	// Narrow and Wide are the two candidate configurations of the
	// distant-ilp and fine-grain families.
	Narrow int `json:"narrow,omitempty"`
	Wide   int `json:"wide,omitempty"`

	// IPCDelta and MetricDelta above are shared by explore and
	// distant-ilp.
}

// family describes one registered controller family.
type family struct {
	// validate rejects parameters outside the family's vocabulary or
	// range.
	validate func(p Params) error
	// build constructs a fresh controller instance from the parameters
	// (nil for static, which has no controller).
	build func(p Params) pipeline.Controller
}

// families is the registry. Keys are Spec.Name values; iteration always
// goes through Families() (collect-then-sort), never a raw range.
var families = map[string]family{
	FamilyStatic: {
		validate: func(p Params) error {
			if p.Clusters < 1 {
				return fmt.Errorf("policy: static needs clusters >= 1, have %d", p.Clusters)
			}
			return rejectForeign(p, "static", func(q *Params) { q.Clusters = 0 })
		},
	},
	FamilyExplore: {
		validate: func(p Params) error {
			return rejectForeign(p, "explore", func(q *Params) {
				q.InitialInterval, q.MaxInterval = 0, 0
				q.IPCDelta, q.MetricDelta, q.Thresh1, q.Thresh2 = 0, 0, 0, 0
				q.Configs = nil
				q.WarmupIntervals, q.MacroInterval = 0, 0
			})
		},
		build: func(p Params) pipeline.Controller {
			return core.NewExplore(core.ExploreConfig{
				InitialInterval: p.InitialInterval,
				MaxInterval:     p.MaxInterval,
				IPCDelta:        p.IPCDelta,
				MetricDelta:     p.MetricDelta,
				Thresh1:         p.Thresh1,
				Thresh2:         p.Thresh2,
				Configs:         append([]int(nil), p.Configs...),
				WarmupIntervals: p.WarmupIntervals,
				MacroInterval:   p.MacroInterval,
			})
		},
	},
	FamilyDistantILP: {
		validate: func(p Params) error {
			return rejectForeign(p, "distant-ilp", func(q *Params) {
				q.Interval, q.DistantThreshold = 0, 0
				q.Narrow, q.Wide = 0, 0
				q.IPCDelta, q.MetricDelta = 0, 0
			})
		},
		build: func(p Params) pipeline.Controller {
			return core.NewDistantILP(core.DistantILPConfig{
				Interval:    p.Interval,
				Threshold:   p.DistantThreshold,
				Narrow:      p.Narrow,
				Wide:        p.Wide,
				IPCDelta:    p.IPCDelta,
				MetricDelta: p.MetricDelta,
			})
		},
	},
	FamilyFineGrain: {
		validate: func(p Params) error {
			return rejectForeign(p, "fine-grain", func(q *Params) {
				q.EveryNthBranch, q.Samples, q.TableSize = 0, 0, 0
				q.Window, q.WindowDistant = 0, 0
				q.FlushInterval = 0
				q.CallReturnOnly = false
				q.Narrow, q.Wide = 0, 0
			})
		},
		build: func(p Params) pipeline.Controller {
			return core.NewFineGrain(core.FineGrainConfig{
				EveryNthBranch: p.EveryNthBranch,
				Samples:        p.Samples,
				TableSize:      p.TableSize,
				Window:         p.Window,
				Threshold:      p.WindowDistant,
				FlushInterval:  p.FlushInterval,
				Narrow:         p.Narrow,
				Wide:           p.Wide,
				CallReturnOnly: p.CallReturnOnly,
			})
		},
	},
}

// rejectForeign zeroes the family's own fields via clear, then fails if
// anything else in p is still set — the strictness that makes a misplaced
// parameter an error rather than a silently ignored default.
func rejectForeign(p Params, fam string, clear func(*Params)) error {
	clear(&p)
	// Every Params field is omitempty, so the canonical JSON of the
	// remainder is "{}" exactly when nothing foreign is set — and when
	// something is, the message shows it under its spec-file key.
	rest, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	if string(rest) != "{}" {
		return fmt.Errorf("policy: parameters outside the %s family: %s", fam, rest)
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
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, fmt.Errorf("policy: trailing data after spec document")
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
// vocabulary.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("policy: unsupported version %d (this build reads version %d)", s.Version, Version)
	}
	fam, ok := families[s.Name]
	if !ok {
		return fmt.Errorf("policy: unknown family %q (have %v)", s.Name, Families())
	}
	return fam.validate(s.Params)
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
		for _, n := range append([]int{p.Clusters, p.Narrow, p.Wide}, p.Configs...) {
			if n&(n-1) != 0 {
				return cfg, nil, "", fmt.Errorf("policy: %s: the decentralized cache needs power-of-two cluster counts, have %d", s.Name, n)
			}
		}
	}
	if s.Name == FamilyStatic {
		cfg.ActiveClusters = s.Params.Clusters
		return cfg, nil, "", nil
	}
	key, err := s.Key()
	if err != nil {
		return cfg, nil, "", err
	}
	return cfg, families[s.Name].build(s.Params), key, nil
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
			Params: Params{CallReturnOnly: true}}, nil
	}
	var n int
	if _, err := fmt.Sscanf(name, "static-%d", &n); err == nil && n >= 1 {
		return &Spec{Version: Version, Name: FamilyStatic,
			Doc:    fmt.Sprintf("fixed %d-cluster machine", n),
			Params: Params{Clusters: n}}, nil
	}
	return nil, fmt.Errorf("policy: unknown paper policy %q (have explore, distant-ilp, fine-grain, fine-grain-cr, static-N)", name)
}
