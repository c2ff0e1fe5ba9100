package runner

import (
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

// namedCtrl is a stub controller whose Name is chosen by the test.
type namedCtrl struct{ name string }

func (c namedCtrl) Name() string                         { return c.name }
func (c namedCtrl) Reset(totalClusters int)              {}
func (c namedCtrl) OnCommit(ev pipeline.CommitEvent) int { return 0 }

func keyOf(q Request) uint64 { return q.key() }

// TestKeyFieldBoundaries: the cache key's encoding is injective across field
// boundaries. No way of redistributing the same bytes between adjacent
// identity fields (seed / window / PolicyKey / SourceKey) may collide —
// the aliasing class a separator-joined encoding would be vulnerable to.
func TestKeyFieldBoundaries(t *testing.T) {
	base := staticReq("gzip", 4)
	cases := []struct {
		name string
		a, b Request
	}{
		{
			name: "seed digits vs window digits",
			a: func() Request {
				q := base
				q.Seed, q.Window = 11, 1000
				return q
			}(),
			b: func() Request {
				q := base
				q.Seed, q.Window = 1, 11000
				return q
			}(),
		},
		{
			name: "PolicyKey vs SourceKey",
			a: func() Request {
				q := base
				q.PolicyKey = "spec:ab"
				q.SourceKey = "c"
				return q
			}(),
			b: func() Request {
				q := base
				q.PolicyKey = "spec:a"
				q.SourceKey = "bc"
				return q
			}(),
		},
		{
			name: "empty PolicyKey vs empty SourceKey",
			a: func() Request {
				q := base
				q.PolicyKey = "trace:f00d"
				return q
			}(),
			b: func() Request {
				q := base
				q.SourceKey = "trace:f00d"
				return q
			}(),
		},
	}
	for _, tc := range cases {
		if ka, kb := keyOf(tc.a), keyOf(tc.b); ka == kb {
			t.Errorf("%s: requests alias to the same key %016x", tc.name, ka)
		}
	}
}

// TestKeySharedAcrossStepperModes: LegacyStepper selects a timing-equivalent
// implementation, not a different simulated machine, so it must not split
// the cache key (regression: key() once hashed the whole Config with %+v,
// which included LegacyStepper even though Config.Fingerprint excluded it).
func TestKeySharedAcrossStepperModes(t *testing.T) {
	event := staticReq("gzip", 4)
	legacy := staticReq("gzip", 4)
	legacy.Config.LegacyStepper = true
	if ke, kl := keyOf(event), keyOf(legacy); ke != kl {
		t.Errorf("stepper modes split the cache key: event %016x, legacy %016x", ke, kl)
	}
}

// TestKeylessSourceUncacheable: a Source closure without a SourceKey has no
// content identity, so the request must bypass the cache entirely rather
// than collide on (Bench, Seed) alone.
func TestKeylessSourceUncacheable(t *testing.T) {
	q := staticReq("gzip", 4)
	q.Source = func() (workload.Generator, error) { return workload.New(q.Bench, q.Seed) }
	if q.cacheable() {
		t.Error("request with keyless Source is cacheable; it must not be")
	}
	q.SourceKey = "spec:deadbeef"
	if !q.cacheable() {
		t.Error("keyed sourced request is not cacheable; it should be")
	}
}

// TestKeyIgnoresControllerName: a controller's identity in the cache key is
// its PolicyKey alone. Names do not carry parameters, so two requests with
// the same PolicyKey share a key whatever their controllers call themselves,
// and a controller without a PolicyKey makes the request uncacheable.
func TestKeyIgnoresControllerName(t *testing.T) {
	a := staticReq("gzip", 4)
	a.Controller, a.PolicyKey = namedCtrl{name: "interval-explore"}, "policy:0123456789abcdef"
	b := a
	b.Controller = namedCtrl{name: "renamed"}
	if keyOf(a) != keyOf(b) {
		t.Error("controller name entered the cache key")
	}
	if !a.cacheable() {
		t.Error("keyed controller request is not cacheable; it should be")
	}
	a.PolicyKey = ""
	if a.cacheable() {
		t.Error("request with an unkeyed Controller is cacheable; it must not be")
	}
}
