package policy

import (
	"reflect"
	"testing"

	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/workload"
)

// oracleWindow keeps the 9×3 matrix fast while spanning several controller
// intervals per benchmark.
const oracleWindow = 60_000

// TestSelfReplayOracle is the decision-trace fidelity oracle: for every
// benchmark × dynamic policy, a Recorder-wrapped run must (a) produce a
// Result byte-identical to the bare controller's run — the recording hook is
// invisible to the simulation — and (b) yield a trace whose self-replay
// reproduces the recorded decision sequence exactly.
func TestSelfReplayOracle(t *testing.T) {
	benches := workload.Benchmarks()
	if testing.Short() {
		benches = benches[:2]
	}
	specs := dynamicSpecs(t)
	cfg := pipeline.DefaultConfig()

	type cell struct {
		bench string
		spec  *Spec
		trace *DecisionTrace
	}
	var cells []cell
	var reqs []runner.Request
	for _, bench := range benches {
		for _, spec := range specs {
			key, err := spec.Key()
			if err != nil {
				t.Fatal(err)
			}
			base := runner.Request{
				ID:        "oracle",
				Bench:     bench,
				Seed:      1,
				Window:    oracleWindow,
				Config:    cfg,
				PolicyKey: key,
			}

			// Bare run (even requests), then the recorded twin (odd).
			bare := base
			ctrl := controllerOf(t, spec)
			bare.Controller = ctrl
			reqs = append(reqs, bare)

			inner := controllerOf(t, spec)
			trace := &DecisionTrace{}
			recorded := base
			recorded.Controller = NewRecorder(inner, trace)
			recorded.PolicyKey = "" // uncacheable: the trace is harvested from the instance
			reqs = append(reqs, recorded)

			cells = append(cells, cell{bench: bench, spec: spec, trace: trace})
		}
	}

	results, err := runner.New(0).RunAll(reqs)
	if err != nil {
		t.Fatal(err)
	}

	for i, c := range cells {
		bareRes, recRes := results[2*i], results[2*i+1]
		label := c.bench + "/" + c.spec.Name
		if !reflect.DeepEqual(bareRes, recRes) {
			t.Errorf("%s: recorded run diverged from bare run:\nbare %+v\nrec  %+v",
				label, bareRes, recRes)
			continue
		}
		if c.trace.Len() == 0 || len(c.trace.Decisions) == 0 {
			t.Errorf("%s: empty trace (%d events, %d decisions)", label, c.trace.Len(), len(c.trace.Decisions))
			continue
		}
		if c.trace.Len() != int(recRes.Instructions) {
			t.Errorf("%s: trace has %d events, run committed %d instructions",
				label, c.trace.Len(), recRes.Instructions)
		}

		rr, err := c.trace.Replay(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rr.Decisions, c.trace.Decisions) {
			t.Errorf("%s: self-replay diverged:\nrecorded %v\nreplayed %v",
				label, c.trace.Decisions, rr.Decisions)
		}
	}
}
