package policy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
)

func TestFamiliesComplete(t *testing.T) {
	want := []string{"distant-ilp", "explore", "fine-grain", "static"}
	if got := Families(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
}

func TestPaperSpecsBuild(t *testing.T) {
	for _, name := range []string{"explore", "distant-ilp", "fine-grain", "fine-grain-cr"} {
		s, err := Paper(name)
		if err != nil {
			t.Fatalf("Paper(%q): %v", name, err)
		}
		cfg, ctrl, key, err := s.Instantiate(pipeline.DefaultConfig())
		if err != nil {
			t.Fatalf("Paper(%q).Instantiate: %v", name, err)
		}
		if ctrl == nil || ctrl.Name() == "" || !strings.HasPrefix(key, "policy:") || cfg != pipeline.DefaultConfig() {
			t.Fatalf("Paper(%q) instantiated to %+v, %v, key %q", name, cfg, ctrl, key)
		}
	}
	// A static organization is a configuration: the request Fig 3 issues.
	for _, n := range []int{4, 16} {
		s, err := Paper(fmt.Sprintf("static-%d", n))
		if err != nil {
			t.Fatal(err)
		}
		cfg, ctrl, key, err := s.Instantiate(pipeline.DefaultConfig())
		want := pipeline.DefaultConfig()
		want.ActiveClusters = n
		if err != nil || ctrl != nil || key != "" || cfg != want {
			t.Fatalf("static-%d instantiated to %+v, %v, key %q, err %v", n, cfg, ctrl, key, err)
		}
	}
	if _, err := Paper("nonsense"); err == nil {
		t.Fatal("Paper(nonsense) should fail")
	}
	if _, err := Paper("static-0"); err == nil {
		t.Fatal("Paper(static-0) should fail")
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	specs := []*Spec{
		{Version: Version, Name: FamilyStatic, Params: Params{Static: Static{Clusters: 8}}},
		{Version: Version, Name: FamilyExplore, Doc: "tuned",
			Params: Params{Explore: core.ExploreConfig{InitialInterval: 20_000, IPCDelta: 0.35, Configs: []int{4, 8, 16}}}},
		{Version: Version, Name: FamilyDistantILP,
			Params: Params{DistantILP: core.DistantILPConfig{Interval: 2_000, Threshold: 1_400, Narrow: 2}}},
		{Version: Version, Name: FamilyFineGrain,
			Params: Params{FineGrain: core.FineGrainConfig{EveryNthBranch: 3, Window: 540, Threshold: 420, CallReturnOnly: true}}},
	}
	for _, s := range specs {
		data, err := s.Serialize()
		if err != nil {
			t.Fatalf("%s: Serialize: %v", s.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: Parse(Serialize): %v\n%s", s.Name, err, data)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: round trip mismatch:\nhave %+v\nwant %+v", s.Name, back, s)
		}
		data2, err := back.Serialize()
		if err != nil || string(data) != string(data2) {
			t.Fatalf("%s: serialization not canonical (err %v)", s.Name, err)
		}
	}
}

func TestFingerprintDistinguishesParams(t *testing.T) {
	a := &Spec{Version: Version, Name: FamilyDistantILP, Params: Params{DistantILP: core.DistantILPConfig{Interval: 1_000}}}
	b := &Spec{Version: Version, Name: FamilyDistantILP, Params: Params{DistantILP: core.DistantILPConfig{Interval: 2_000}}}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Fatalf("distinct parameterizations share fingerprint %016x", fa)
	}
	fa2, _ := a.Fingerprint()
	if fa != fa2 {
		t.Fatalf("fingerprint unstable: %016x then %016x", fa, fa2)
	}
	key, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(key, "policy:") || len(key) != len("policy:")+16 {
		t.Fatalf("Key() = %q, want policy:<16 hex digits>", key)
	}
}

func TestForeignParamsRejected(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"explore+interval",
			Spec{Version: Version, Name: FamilyExplore, Params: Params{DistantILP: core.DistantILPConfig{Interval: 500}}},
			"interval"},
		{"static+window",
			Spec{Version: Version, Name: FamilyStatic, Params: Params{Static: Static{Clusters: 4}, FineGrain: core.FineGrainConfig{Window: 360}}},
			"window"},
		{"dilp+table",
			Spec{Version: Version, Name: FamilyDistantILP, Params: Params{FineGrain: core.FineGrainConfig{TableSize: 1024}}},
			"table_size"},
		{"finegrain+macro",
			Spec{Version: Version, Name: FamilyFineGrain, Params: Params{Explore: core.ExploreConfig{MacroInterval: 1_000_000}}},
			"macro_interval"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted foreign params", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name the foreign key %q", tc.name, err, tc.want)
		}
	}
	// In a spec file, another family's key fails in the decoder, which
	// names it.
	docs := []struct{ doc, want string }{
		{`{"version":1,"name":"explore","params":{"interval":500}}`, `"interval"`},
		{`{"version":1,"name":"static","params":{"clusters":4,"window":360}}`, `"window"`},
		{`{"version":1,"name":"distant-ilp","params":{"table_size":1024}}`, `"table_size"`},
		{`{"version":1,"name":"fine-grain","params":{"macro_interval":1000000}}`, `"macro_interval"`},
	}
	for _, tc := range docs {
		_, err := Parse([]byte(tc.doc))
		if err == nil {
			t.Fatalf("Parse accepted foreign params: %s", tc.doc)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Parse(%s): error %q does not name the foreign key %s", tc.doc, err, tc.want)
		}
	}
}

// TestDecentralizedNeedsPowerOfTwoCounts: the decentralized cache masks
// addresses onto banks, so Instantiate rejects any cluster count a spec
// names that is not a power of two there, and only there.
func TestDecentralizedNeedsPowerOfTwoCounts(t *testing.T) {
	dist := pipeline.DefaultConfig()
	dist.Cache = pipeline.DecentralizedCache
	for _, s := range []*Spec{
		{Version: Version, Name: FamilyStatic, Params: Params{Static: Static{Clusters: 3}}},
		{Version: Version, Name: FamilyExplore, Params: Params{Explore: core.ExploreConfig{Configs: []int{2, 6, 16}}}},
		{Version: Version, Name: FamilyDistantILP, Params: Params{DistantILP: core.DistantILPConfig{Narrow: 3}}},
		{Version: Version, Name: FamilyFineGrain, Params: Params{FineGrain: core.FineGrainConfig{Wide: 12}}},
	} {
		if _, _, _, err := s.Instantiate(dist); err == nil || !strings.Contains(err.Error(), "power-of-two") {
			t.Errorf("%s %+v on the decentralized cache: err %v", s.Name, s.Params, err)
		}
		if _, _, _, err := s.Instantiate(pipeline.DefaultConfig()); err != nil {
			t.Errorf("%s %+v on the centralized cache: %v", s.Name, s.Params, err)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unknown field", `{"version":1,"name":"explore","bogus":3}`},
		{"unknown family", `{"version":1,"name":"oracle"}`},
		{"bad version", `{"version":7,"name":"explore"}`},
		{"static clusters", `{"version":1,"name":"static"}`},
		{"trailing data", `{"version":1,"name":"explore"}{"version":1,"name":"explore"}`},
		{"trailing garbage", `{"version":1,"name":"explore"} }`},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil {
			t.Fatalf("%s: Parse accepted %s", tc.name, tc.doc)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/policy.json"); err == nil {
		t.Fatal("LoadFile on a missing path should fail")
	}
}

func TestBuildReturnsFreshInstances(t *testing.T) {
	s, err := Paper("explore")
	if err != nil {
		t.Fatal(err)
	}
	a := controllerOf(t, s)
	b := controllerOf(t, s)
	if a == b {
		t.Fatal("Instantiate returned the same controller instance twice")
	}
}
