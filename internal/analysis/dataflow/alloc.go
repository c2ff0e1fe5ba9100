package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocKind classifies one heap-allocation-relevant expression shape.
type AllocKind int

// Alloc kinds, in the order hotalloc documents them.
const (
	// AllocComposite is a composite literal that allocates: a pointer
	// literal (&T{...}) or a slice/map literal. Value struct and array
	// literals stay on the stack unless something else (an interface
	// conversion, an address capture) moves them, and are not reported
	// on their own.
	AllocComposite AllocKind = iota
	// AllocClosure is a func literal that captures variables of the
	// enclosing function; the closure header and its captured slots are
	// heap-allocated at every evaluation.
	AllocClosure
	// AllocIface is a conversion of a concrete value to an interface
	// type — at a call argument, assignment, return or explicit
	// conversion — which boxes the value.
	AllocIface
	// AllocAppend is an append whose destination the function does not
	// presize with a three-argument make; growth reallocates and copies.
	AllocAppend
	// AllocMapRange is a range over a map: beyond its order
	// nondeterminism, the hidden iterator defeats the optimizer in hot
	// loops and the buckets walk is cache-hostile.
	AllocMapRange
)

// String names the kind for diagnostics.
func (k AllocKind) String() string {
	switch k {
	case AllocComposite:
		return "composite-literal allocation"
	case AllocClosure:
		return "capturing closure"
	case AllocIface:
		return "interface conversion"
	case AllocAppend:
		return "append without presized capacity"
	case AllocMapRange:
		return "map iteration"
	}
	return "allocation"
}

// An AllocSite is one expression in a function body that (potentially)
// allocates on every execution.
type AllocSite struct {
	Pos  token.Pos
	Kind AllocKind
	// Detail carries the site-specific half of the diagnostic ("conversion
	// of *mem.Config to io.Writer", "append to p.agenda").
	Detail string
}

// AllocSites classifies fn's body. The classification is conservative
// toward reporting: a shape it cannot prove allocation-free is a site, and
// genuine cold paths opt out per site with //simlint:alloc <reason>.
func AllocSites(info *types.Info, fn *ast.FuncDecl) []AllocSite {
	var out []AllocSite
	presized := presizedSlices(info, fn.Body)
	var retTypes []types.Type
	if sig, ok := info.Defs[fn.Name].Type().(*types.Signature); ok {
		for i := 0; i < sig.Results().Len(); i++ {
			retTypes = append(retTypes, sig.Results().At(i).Type())
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					out = append(out, AllocSite{Pos: n.Pos(), Kind: AllocComposite,
						Detail: "address-taken literal " + typeLabel(info, n.X)})
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					out = append(out, AllocSite{Pos: n.Pos(), Kind: AllocComposite,
						Detail: typeLabel(info, n) + " literal"})
				}
			}
		case *ast.FuncLit:
			if captures(info, n) {
				out = append(out, AllocSite{Pos: n.Pos(), Kind: AllocClosure,
					Detail: "closure captures enclosing variables"})
			}
			// Do not descend: the literal's body executes on the
			// closure's schedule, not the hot path's. If the closure is
			// invoked from hot code its callee is unreachable to the
			// closure walk anyway (documented limit).
			return false
		case *ast.CallExpr:
			out = append(out, callSites(info, n, presized)...)
		case *ast.AssignStmt:
			out = append(out, assignSites(info, n)...)
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if i < len(retTypes) && len(n.Results) == len(retTypes) {
					if convertsToIface(info, retTypes[i], res) {
						out = append(out, AllocSite{Pos: res.Pos(), Kind: AllocIface,
							Detail: "return boxes " + typeLabel(info, res)})
					}
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					out = append(out, AllocSite{Pos: n.Pos(), Kind: AllocMapRange,
						Detail: "range over " + typeLabel(info, n.X)})
				}
			}
		}
		return true
	})
	return out
}

// callSites classifies one call: explicit conversions to interface types,
// interface-typed parameters receiving concrete arguments, and appends
// without a presized destination.
func callSites(info *types.Info, call *ast.CallExpr, presized map[types.Object]bool) []AllocSite {
	var out []AllocSite

	// Explicit conversion: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if convertsToIface(info, tv.Type, call.Args[0]) {
			return []AllocSite{{Pos: call.Pos(), Kind: AllocIface,
				Detail: "conversion boxes " + typeLabel(info, call.Args[0])}}
		}
		return nil
	}

	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) >= 2 {
				dst := rootExprObject(info, call.Args[0])
				if dst == nil || !presized[dst] {
					out = append(out, AllocSite{Pos: call.Pos(), Kind: AllocAppend,
						Detail: "append may grow its destination; presize with a 3-arg make or opt out"})
				}
			}
			return out
		}
	}

	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return out
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // s... spreads an existing slice, no per-element boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if convertsToIface(info, pt, arg) {
			out = append(out, AllocSite{Pos: arg.Pos(), Kind: AllocIface,
				Detail: "argument boxes " + typeLabel(info, arg)})
		}
	}
	return out
}

// assignSites flags assignments that box a concrete value into an
// interface-typed variable or field.
func assignSites(info *types.Info, as *ast.AssignStmt) []AllocSite {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	var out []AllocSite
	for i := range as.Lhs {
		lt := info.TypeOf(as.Lhs[i])
		if lt == nil {
			continue
		}
		if convertsToIface(info, lt, as.Rhs[i]) {
			out = append(out, AllocSite{Pos: as.Rhs[i].Pos(), Kind: AllocIface,
				Detail: "assignment boxes " + typeLabel(info, as.Rhs[i])})
		}
	}
	return out
}

// convertsToIface reports whether assigning expr to a target of type dst
// boxes a concrete value: dst is an interface, expr's type is not, and
// expr is not the untyped nil.
func convertsToIface(info *types.Info, dst types.Type, expr ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	return !types.IsInterface(tv.Type)
}

// presizedSlices collects local variables bound to a three-argument make
// anywhere in the body: append to such a slice is growth-free until the
// reserved capacity is consumed, the presize idiom the alloc budget
// expects.
func presizedSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	presized := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			call, ok := unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				continue
			}
			fid, ok := unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := info.Uses[fid].(*types.Builtin); ok && b.Name() == "make" {
				if obj := info.ObjectOf(id); obj != nil {
					presized[obj] = true
				}
			}
		}
		return true
	})
	return presized
}

// captures reports whether the func literal references any variable
// declared outside its own body but inside some enclosing function.
func captures(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captured (they live in static
		// storage); only function-scoped objects declared outside the
		// literal force a closure allocation.
		if isPkgLevel(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
		}
		return true
	})
	return found
}

// isPkgLevel reports whether v is declared at package scope.
func isPkgLevel(v *types.Var) bool {
	if v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// rootExprObject resolves expressions like s, *p, (s) to their variable.
func rootExprObject(info *types.Info, e ast.Expr) types.Object {
	e = unparen(e)
	if s, ok := e.(*ast.StarExpr); ok {
		e = unparen(s.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// typeLabel renders an expression's type for diagnostics.
func typeLabel(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		return types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	return "value"
}
