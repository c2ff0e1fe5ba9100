package experiments

import (
	"strings"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/policy"
)

func TestPolicyTiny(t *testing.T) {
	tbl, err := PolicyTable(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Four paper policies, two benchmarks plus the geomean row.
	if len(tbl.Columns) != 4 {
		t.Fatalf("columns %v, want the four paper policies", tbl.Columns)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("got %d rows, want gzip+vpr+geomean", len(tbl.Rows))
	}
	if tbl.Rows[2].Name != "geomean" {
		t.Fatalf("last row %q, want geomean", tbl.Rows[2].Name)
	}
	for _, row := range tbl.Rows {
		for ci, c := range row.Cells {
			if !c.IsNum || c.Value <= 0 {
				t.Fatalf("row %s cell %d not a positive IPC: %+v", row.Name, ci, c)
			}
		}
	}
	var fitnessNotes int
	for _, n := range tbl.Notes {
		if strings.Contains(n, "score") {
			fitnessNotes++
		}
	}
	if fitnessNotes != 4 {
		t.Fatalf("got %d fitness notes, want one per policy", fitnessNotes)
	}
}

func TestPolicyTinyWithSpecs(t *testing.T) {
	o := tinyOpts()
	s1, err := policy.Paper("distant-ilp")
	if err != nil {
		t.Fatal(err)
	}
	s2 := &policy.Spec{Version: policy.Version, Name: policy.FamilyDistantILP,
		Params: policy.Params{DistantILP: core.DistantILPConfig{Interval: 2_000}}}
	o.PolicySpecs = []*policy.Spec{s1, s2}
	tbl, err := PolicyTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 2 {
		t.Fatalf("columns %v, want the two provided specs", tbl.Columns)
	}
	if tbl.Columns[0] == tbl.Columns[1] {
		t.Fatalf("same-family specs share the label %q", tbl.Columns[0])
	}
}

func TestCounterfactualTiny(t *testing.T) {
	o := tinyOpts()
	o.CounterfactualK = 2
	tbl, err := Counterfactual(o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks × 2 alternatives.
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row.Cells) != len(tbl.Columns) {
			t.Fatalf("row %s has %d cells, want %d", row.Name, len(row.Cells), len(tbl.Columns))
		}
		agree := row.Cells[3]
		if !agree.IsNum || agree.Value < 0 || agree.Value > 1 {
			t.Fatalf("row %s agreement out of range: %+v", row.Name, agree)
		}
		if !row.Cells[0].IsNum || row.Cells[0].Value <= 0 {
			t.Fatalf("row %s base IPC not positive: %+v", row.Name, row.Cells[0])
		}
		if !row.Cells[1].IsNum || row.Cells[1].Value <= 0 {
			t.Fatalf("row %s alt IPC not positive: %+v", row.Name, row.Cells[1])
		}
	}
}

// TestCounterfactualStatic: a static base records its stream through a
// Recorder with no controller, and a static alternative replays as the
// single decision N at the first commit: static-4 against itself agrees
// everywhere, and against static-16 nowhere.
func TestCounterfactualStatic(t *testing.T) {
	o := tinyOpts()
	o.Benchmarks = []string{"gzip"}
	o.PolicySpecs = make([]*policy.Spec, 3)
	for i, name := range []string{"static-4", "static-4", "static-16"} {
		s, err := policy.Paper(name)
		if err != nil {
			t.Fatal(err)
		}
		o.PolicySpecs[i] = s
	}
	tbl, err := Counterfactual(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || !strings.Contains(tbl.Title, "static-4") {
		t.Fatalf("got %q with %d rows, want static-4 against two alternatives", tbl.Title, len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		self := i == 0
		agree, decisions, churn := row.Cells[3].Value, row.Cells[4].Value, row.Cells[5].Value
		if (self && agree != 1) || (!self && agree != 0) || decisions != 1 || churn != 0 {
			t.Errorf("%s: agreement %v, %v decisions, churn %v", row.Name, agree, decisions, churn)
		}
		if self && row.Cells[0].Value != row.Cells[1].Value {
			t.Errorf("%s: recorded base IPC %v differs from the static-4 cell %v", row.Name, row.Cells[0].Value, row.Cells[1].Value)
		}
	}
}
