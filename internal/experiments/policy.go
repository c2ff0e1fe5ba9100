package experiments

import (
	"fmt"

	"clustersim/internal/energy"
	"clustersim/internal/pipeline"
	"clustersim/internal/policy"
	"clustersim/internal/runner"
)

// policySpecs returns the experiment's policy list: Options.PolicySpecs when
// set, otherwise the paper's four controllers.
func (o Options) policySpecs() ([]*policy.Spec, error) {
	if len(o.PolicySpecs) > 0 {
		return o.PolicySpecs, nil
	}
	var specs []*policy.Spec
	for _, name := range []string{"explore", "distant-ilp", "fine-grain", "fine-grain-cr"} {
		s, err := policy.Paper(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// policyLabels renders one display label per spec: the built controller's
// name, disambiguated with a fingerprint suffix when two parameterizations
// of a family share it.
func policyLabels(specs []*policy.Spec) ([]string, error) {
	labels := make([]string, len(specs))
	counts := make(map[string]int, len(specs))
	for i, s := range specs {
		ctrl, err := s.Build()
		if err != nil {
			return nil, err
		}
		labels[i] = ctrl.Name()
		counts[labels[i]]++
	}
	for i, s := range specs {
		if counts[labels[i]] > 1 {
			fp, err := s.Fingerprint()
			if err != nil {
				return nil, err
			}
			labels[i] = fmt.Sprintf("%s@%04x", labels[i], fp&0xffff)
		}
	}
	return labels, nil
}

// policyRequest builds one cacheable sweep cell: benchmark bench on machine
// cfg under a fresh controller built from spec, keyed in the run cache by
// the spec's fingerprint. Every cacheable controller cell goes through
// here, so one controller has one cache identity across all experiments.
func (o Options) policyRequest(id, bench string, cfg pipeline.Config, spec *policy.Spec) (runner.Request, error) {
	ctrl, err := spec.Build()
	if err != nil {
		return runner.Request{}, err
	}
	key, err := spec.Key()
	if err != nil {
		return runner.Request{}, err
	}
	req := o.request(id, bench, cfg, o.Window(bench))
	req.Controller, req.PolicyKey = ctrl, key
	return req, nil
}

// dilpIntervals are the fixed interval lengths the figures sweep the §4.3
// distant-ILP controller over, by column label.
var dilpIntervals = map[string]uint64{"dilp-500": 500, "dilp-1K": 1_000, "dilp-10K": 10_000}

// columnPolicy resolves a figure column label to its controller's policy
// spec: the paper controllers by their policy.Paper names (static-N,
// explore), the distant-ILP interval variants, and the two fine-grained
// schemes by their controller names.
func columnPolicy(label string) (*policy.Spec, error) {
	if iv, ok := dilpIntervals[label]; ok {
		return &policy.Spec{Version: policy.Version, Name: policy.FamilyDistantILP,
			Params: policy.Params{Interval: iv}}, nil
	}
	switch label {
	case "fg-branch":
		label = "fine-grain"
	case "fg-callreturn":
		label = "fine-grain-cr"
	}
	return policy.Paper(label)
}

// columnPolicies resolves every label with columnPolicy.
func columnPolicies(labels []string) ([]*policy.Spec, error) {
	specs := make([]*policy.Spec, len(labels))
	for i, l := range labels {
		s, err := columnPolicy(l)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// PolicyTable compares policy specs head-to-head: per-benchmark IPC for
// every spec (Options.PolicySpecs, defaulting to the paper's controllers),
// with geomean-IPC and multi-objective fitness aggregates (energy per
// instruction, reconfiguration churn, combined score) in the notes.
func PolicyTable(o Options) (*Table, error) {
	specs, err := o.policySpecs()
	if err != nil {
		return nil, err
	}
	labels, err := policyLabels(specs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "policy",
		Title:   "Policy-spec comparison (IPC per policy)",
		Columns: labels,
		Notes: []string{
			"policies built from serializable specs (internal/policy); cache keys include the spec fingerprint",
		},
	}
	benches := o.benchmarks()
	var reqs []runner.Request
	for _, b := range benches {
		for pi := range specs {
			req, err := o.policyRequest(fmt.Sprintf("policy-%d", pi), b, pipeline.DefaultConfig(), specs[pi])
			if err != nil {
				return nil, fmt.Errorf("policy: %w", err)
			}
			reqs = append(reqs, req)
		}
	}
	rs, err := o.sweeper().RunAll(reqs)
	if err != nil {
		err = fmt.Errorf("policy: %w", err)
		if !salvageable(err) {
			return nil, err
		}
	}

	model := energy.DefaultModel()
	weights := policy.DefaultWeights()
	perPolicy := make([][]policy.Fitness, len(specs))
	for bi, b := range benches {
		row := Row{Name: b}
		for pi := range specs {
			r := rs[bi*len(specs)+pi]
			row.Cells = append(row.Cells, ipcCell(r))
			if !failed(r) {
				perPolicy[pi] = append(perPolicy[pi], policy.Evaluate(r, model, weights))
			}
		}
		t.Rows = append(t.Rows, row)
	}

	gm := Row{Name: "geomean"}
	for pi, label := range labels {
		agg := policy.Aggregate(perPolicy[pi], weights)
		if len(perPolicy[pi]) == 0 {
			gm.Cells = append(gm.Cells, Str("-"))
			continue
		}
		gm.Cells = append(gm.Cells, Num(agg.IPC, 2))
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: geomean IPC %.2f, energy/instr %.2f, reconfigs/M-instr %.1f, score %.3f",
			label, agg.IPC, agg.EnergyPerInstr, agg.ChurnPerMInstr, agg.Score))
	}
	t.Rows = append(t.Rows, gm)
	return t, err
}

// Counterfactual answers "what would policy B have decided on policy A's
// run?": it records the base policy's decision trace per benchmark (the full
// commit stream the controller saw), replays each alternative policy against
// that exact stream (no simulation), and re-simulates each alternative for
// its exact IPC — separating "the policies disagree" (agreement, replayed
// churn) from "and it matters" (IPC delta).
func Counterfactual(o Options) (*Table, error) {
	specs, err := o.policySpecs()
	if err != nil {
		return nil, err
	}
	base := specs[0]
	alts := specs[1:]
	if len(alts) == 0 {
		// A single spec compares against the remaining paper controllers.
		for _, name := range []string{"distant-ilp", "fine-grain", "static-4"} {
			s, perr := policy.Paper(name)
			if perr != nil {
				return nil, perr
			}
			alts = append(alts, s)
		}
	}
	k := o.CounterfactualK
	if k <= 0 {
		k = 3
	}
	if k < len(alts) {
		alts = alts[:k]
	}
	baseLabel, err := policyLabels([]*policy.Spec{base})
	if err != nil {
		return nil, err
	}
	altLabels, err := policyLabels(alts)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "counterfactual",
		Title: fmt.Sprintf("Counterfactual replay against %s decision traces", baseLabel[0]),
		Columns: []string{
			"base-IPC", "alt-IPC", "dIPC%", "agree", "alt-decisions", "alt-churn/M",
		},
		Notes: []string{
			"agree: fraction of the base run's instructions over which both policies request the same width",
			"alt-IPC re-simulates the alternative (exact); decisions/churn come from trace replay (no simulation)",
		},
	}

	// Phase 1: record the base policy's trace per benchmark. Recording
	// runs bypass the cache (the trace lives on the Recorder instance).
	benches := o.benchmarks()
	cfgFP := pipeline.DefaultConfig().Fingerprint()
	baseFP, err := base.Fingerprint()
	if err != nil {
		return nil, err
	}
	traces := make([]*policy.DecisionTrace, len(benches))
	recReqs := make([]runner.Request, len(benches))
	for bi, b := range benches {
		inner, berr := base.Build()
		if berr != nil {
			return nil, berr
		}
		traces[bi] = &policy.DecisionTrace{Bench: b, Seed: o.seed(), Window: o.Window(b),
			PolicyFP: baseFP, ConfigFP: cfgFP}
		req := o.request("cf-record", b, pipeline.DefaultConfig(), o.Window(b))
		req.Controller, req.NoCache = policy.NewRecorder(inner, traces[bi]), true
		recReqs[bi] = req
	}
	baseRes, err := o.sweeper().RunAll(recReqs)
	if err != nil {
		err = fmt.Errorf("counterfactual: %w", err)
		if !salvageable(err) {
			return nil, err
		}
	}

	// Phase 2: re-simulate every alternative (cacheable — these cells are
	// shared with the policy experiment and any search that visited them).
	var simReqs []runner.Request
	for _, b := range benches {
		for ai := range alts {
			req, rerr := o.policyRequest(fmt.Sprintf("cf-alt-%d", ai), b, pipeline.DefaultConfig(), alts[ai])
			if rerr != nil {
				return nil, fmt.Errorf("counterfactual: %w", rerr)
			}
			simReqs = append(simReqs, req)
		}
	}
	altRes, simErr := o.sweeper().RunAll(simReqs)
	if simErr != nil {
		simErr = fmt.Errorf("counterfactual: %w", simErr)
		if !salvageable(simErr) {
			return nil, simErr
		}
		if err == nil {
			err = simErr
		}
	}

	// Phase 3: replay each alternative against each trace and assemble.
	for bi, b := range benches {
		if failed(baseRes[bi]) {
			for _, al := range altLabels {
				t.Rows = append(t.Rows, Row{Name: b + " vs " + al,
					Cells: []Cell{Str("-"), Str("-"), Str("-"), Str("-"), Str("-"), Str("-")}})
			}
			continue
		}
		trace := traces[bi]
		baseReplay := policy.ReplayResult{Decisions: trace.Decisions}
		for ai, al := range altLabels {
			row := Row{Name: b + " vs " + al}
			r := altRes[bi*len(alts)+ai]
			altCtrl, berr := alts[ai].Build()
			if berr != nil {
				return nil, berr
			}
			rr := trace.Replay(altCtrl)
			baseIPC := baseRes[bi].IPC()
			row.Cells = append(row.Cells, Num(baseIPC, 2))
			if failed(r) {
				row.Cells = append(row.Cells, Str("-"), Str("-"))
			} else {
				row.Cells = append(row.Cells,
					Num(r.IPC(), 2),
					Num(100*(r.IPC()-baseIPC)/baseIPC, 1))
			}
			row.Cells = append(row.Cells,
				Num(trace.Agreement(baseReplay.Decisions, rr.Decisions), 2),
				Num(float64(len(rr.Decisions)), 0),
				Num(rr.ChurnPerMInstr(baseRes[bi].Instructions), 1))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, err
}
