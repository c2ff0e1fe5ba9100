// Package determinism forbids the nondeterminism sources that would break
// the simulator's bit-reproducibility contract (seed determinism oracles,
// resume equivalence, the content-addressed run cache) inside simulation
// packages:
//
//   - wall-clock reads (time.Now, time.Since, time.Until);
//   - the global math/rand generators (internal/rng is the only sanctioned
//     randomness source — it is seedable, snapshotable, and stable across
//     Go releases);
//   - ranging over a map, whose iteration order is deliberately randomized
//     by the runtime;
//   - floating-point accumulation inside a map range, which is order-
//     dependent even when the loop's final contents are not.
//
// Two map-range shapes are recognized as safe and not reported: a loop
// whose only effect is deleting from the very map being ranged (the
// runtime guarantees this is sound, and the surviving set is order-
// independent), and the collect-then-sort idiom where the body only
// appends the keys to a slice that the enclosing function subsequently
// sorts. Anything else needs a //simlint:allow determinism <reason>.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"clustersim/internal/analysis"
)

// SimPackages lists the import paths (and their subtrees) holding
// simulation state or feeding simulation output. Only these are checked:
// drivers, experiment harnesses and the analysis code itself may use the
// clock and stdlib randomness freely.
var SimPackages = []string{
	"clustersim/internal/core",
	"clustersim/internal/pipeline",
	"clustersim/internal/mem",
	"clustersim/internal/bpred",
	"clustersim/internal/interconnect",
	"clustersim/internal/workload",
	"clustersim/internal/smt",
	"clustersim/internal/energy",
	"clustersim/internal/isa",
	"clustersim/internal/spec",
	"clustersim/internal/trace",
	"clustersim/internal/policy",
}

// IsSimPackage reports whether an import path is subject to the
// determinism rules. It is a variable so tests can substitute fixtures.
var IsSimPackage = func(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range SimPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// forbiddenFuncs maps fully qualified function names to the replacement
// guidance printed with the diagnostic.
var forbiddenFuncs = map[string]string{
	"time.Now":   "derive timing from the simulated cycle counter",
	"time.Since": "derive durations from simulated cycle deltas",
	"time.Until": "derive durations from simulated cycle deltas",
}

// forbiddenImports are packages simulation code must not depend on.
var forbiddenImports = map[string]string{
	"math/rand":    "use the seedable clustersim/internal/rng source",
	"math/rand/v2": "use the seedable clustersim/internal/rng source",
}

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and order-dependent " +
		"map iteration in simulation packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !IsSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		checkImports(pass, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if hint, bad := forbiddenImports[path]; bad {
			pass.Reportf(imp.Pos(), "import of %s is nondeterministic across processes and Go releases; %s", path, hint)
		}
	}
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if obj, ok := pass.Info.Uses[n.Sel].(*types.Func); ok {
				if hint, bad := forbiddenFuncs[obj.FullName()]; bad {
					pass.Reportf(n.Pos(), "%s reads the wall clock and breaks run determinism; %s", obj.FullName(), hint)
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, fn, n)
		}
		return true
	})
}

// checkMapRange analyzes one range statement whose operand may be a map.
func checkMapRange(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}

	// Floating-point accumulation inside the body is reported even when
	// the loop would otherwise look harmless: summation order changes the
	// rounding, so the result depends on iteration order.
	reportFloatAccumulation(pass, rng.Body)

	if deleteOnlyBody(pass, rng) {
		return
	}
	if collectsSortedKeys(pass, fn, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "iterating a map is order-nondeterministic; collect and sort the keys, "+
		"or annotate //simlint:allow determinism <reason> if order provably cannot escape")
}

// reportFloatAccumulation flags compound float assignments (x += v, x = x
// + v, ...) anywhere in the loop body, including nested blocks.
func reportFloatAccumulation(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		accum := false
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			accum = true
		case token.ASSIGN:
			// x = x + v (or x = v + x) style accumulation.
			if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
					switch bin.Op {
					case token.ADD, token.SUB, token.MUL, token.QUO:
						lhs := exprString(as.Lhs[0])
						accum = exprString(bin.X) == lhs || exprString(bin.Y) == lhs
					}
				}
			}
		}
		if !accum || len(as.Lhs) == 0 {
			return true
		}
		if t := pass.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				pass.Reportf(as.Pos(), "floating-point accumulation over map iteration is order-dependent; "+
					"accumulate into a sorted slice first")
			}
		}
		return true
	})
}

// deleteOnlyBody reports whether every statement with an effect in the
// loop body is a delete on the ranged map itself. Conditionals and reads
// are fine; any other call, assignment or control transfer is not.
func deleteOnlyBody(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	target := exprString(rng.X)
	sawDelete := false
	safe := true
	var checkStmts func(stmts []ast.Stmt)
	checkStmts = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.IfStmt:
				if s.Init != nil || s.Else != nil {
					safe = false
					return
				}
				checkStmts(s.Body.List)
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok || !isBuiltin(pass, call.Fun, "delete") ||
					len(call.Args) != 2 || exprString(call.Args[0]) != target {
					safe = false
					return
				}
				sawDelete = true
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					safe = false
					return
				}
			default:
				safe = false
				return
			}
		}
	}
	checkStmts(rng.Body.List)
	return safe && sawDelete
}

// collectsSortedKeys reports whether the loop only appends its key (and
// nothing else) to slices that the enclosing function later sorts.
func collectsSortedKeys(pass *analysis.Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	keyIdent, _ := rng.Key.(*ast.Ident)
	if keyIdent == nil {
		return false
	}
	// The value variable must be unused: appending values keyed by an
	// unsorted iteration leaks order even if the keys get sorted.
	if v, ok := rng.Value.(*ast.Ident); ok && v.Name != "_" {
		return false
	}
	var collected []types.Object
	for _, s := range rng.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) != 2 {
			return false
		}
		dst, ok := as.Lhs[0].(*ast.Ident)
		if !ok || exprString(call.Args[0]) != dst.Name {
			return false
		}
		arg, ok := call.Args[1].(*ast.Ident)
		if !ok || pass.Info.Uses[arg] == nil || pass.Info.Uses[arg] != pass.Info.ObjectOf(keyIdent) {
			return false
		}
		collected = append(collected, pass.Info.ObjectOf(dst))
	}
	if len(collected) == 0 {
		return false
	}
	for _, obj := range collected {
		if obj == nil || !sortedLater(pass, fn, obj) {
			return false
		}
	}
	return true
}

// sortedLater reports whether fn contains a sort.* / slices.Sort* call
// taking obj as an argument.
func sortedLater(pass *analysis.Pass, fn *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		switch f.Pkg().Path() {
		case "sort":
			switch f.Name() {
			case "Sort", "Stable", "Slice", "SliceStable", "Ints", "Strings", "Float64s":
			default:
				return true
			}
		case "slices":
			if !strings.HasPrefix(f.Name(), "Sort") {
				return true
			}
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.Uses[id].(*types.Builtin)
	return ok
}

// exprString renders small expressions (selectors, identifiers, indexes)
// for syntactic comparison; it intentionally covers only the shapes the
// safe-pattern checks compare.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	default:
		return "?"
	}
}
