// Package hotalloc guards the event-driven cycle loop's allocation budget
// at compile time. The event-driven scheduler holds the simulator's steady
// state to a pinned handful of allocations per 10K-instruction window — the
// property internal/pipeline's TestSteadyStateAllocBudget measures after
// the fact. This pass is the before-the-fact half: inside functions
// reachable from an annotated hot root, the expression shapes that
// reintroduce per-cycle heap traffic are findings, so the budget cannot
// erode one innocent-looking line at a time between benchmark runs.
//
// A root is designated on its declaration line (or the line above):
//
//	//simlint:hot
//
// The checked region is the root set's same-package call-graph closure,
// computed by the dataflow layer. Cross-package calls and interface
// dispatch (Controller.OnCommit, workload.Generator.Next) are the
// documented boundary: callees behind them are covered by their own
// packages' roots or by the runtime alloc tests, not by this pass.
//
// Within the region, five shapes are reported:
//
//   - composite-literal allocations: &T{...}, slice and map literals
//     (value struct literals stay on the stack and are not reported);
//   - capturing closures: a func literal referencing enclosing variables
//     heap-allocates its header and captures at every evaluation;
//   - interface conversions: boxing a concrete value at a call argument,
//     assignment, return or explicit conversion;
//   - append growth: an append whose destination the function does not
//     presize with a three-argument make;
//   - map iteration.
//
// A site that is genuinely cold (error construction on a path that ends
// the run) or amortized (an arena that grows once and is reused) opts out
// on its line with //simlint:alloc <reason> — the reason is mandatory and
// reviewed, exactly like snapstate's nostate exemptions.
package hotalloc

import (
	"go/ast"

	"clustersim/internal/analysis"
	"clustersim/internal/analysis/dataflow"
)

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "no composite-literal escapes, capturing closures, interface " +
		"conversions, unpresized appends or map iteration in functions " +
		"reachable from a //simlint:hot root",
	Run: run,
}

func run(pass *analysis.Pass) error {
	graph := dataflow.NewGraph(pass.Info, pass.Files)
	var roots []*ast.FuncDecl
	for _, fd := range graph.Decls() {
		if pass.HotRoot(fd.Pos()) {
			roots = append(roots, fd)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	for _, fd := range graph.Closure(roots...) {
		for _, site := range dataflow.AllocSites(pass.Info, fd) {
			pass.Reportf(site.Pos,
				"%s in hot function %s: %s; hoist it out of the hot path or annotate "+
					"//simlint:alloc <reason>",
				site.Kind, fd.Name.Name, site.Detail)
		}
	}
	return nil
}
