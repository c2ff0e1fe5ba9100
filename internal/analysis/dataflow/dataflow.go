// Package dataflow is the shared intra-procedural dataflow layer under the
// simlint passes that reason about where values go rather than what the
// syntax looks like: receiver resolution and call-graph closure over
// same-package helpers (the completeness passes snapstate, statsconserve
// and cachekey; hotalloc), field-access/assignment classification and the
// mentioned-field set (the completeness passes, syncsafety), and
// escape-relevant expression classification (hotalloc).
//
// The analyses are deliberately lightweight — stdlib-only, built on the
// framework's go/types loader — and intra-procedural: facts propagate
// through the bodies of same-package functions reachable from a root, but
// never across package boundaries, through interface dispatch, or through
// function values whose target cannot be resolved statically. Within those
// limits the classifications are conservative in the direction each pass
// needs: cachekey treats an unresolvable whole-struct use as covering every
// field (under-reporting, never false-alarming on code it cannot see), and
// hotalloc flags an allocation shape it cannot prove safe (over-reporting,
// with a per-site opt-out).
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// Graph indexes one unit's function declarations and resolves references
// between them, giving passes a same-package call graph.
type Graph struct {
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
}

// NewGraph indexes every function and method declaration of the unit.
func NewGraph(info *types.Info, files []*ast.File) *Graph {
	g := &Graph{info: info, decls: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				g.decls[fn] = fd
			}
		}
	}
	return g
}

// DeclOf returns the unit-local declaration of fn, or nil when fn is not
// declared in the unit (imported, interface method, ...).
func (g *Graph) DeclOf(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Decls returns every indexed declaration in source order.
func (g *Graph) Decls() []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(g.decls))
	for _, fd := range g.decls {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// Closure returns the declarations reachable from roots through references
// to same-package functions and methods: direct calls, method values, and
// function values taken by name. References the type checker cannot resolve
// to a unit-local declaration (interface dispatch, imported functions,
// dynamic function values) end the walk there — the documented
// intra-procedural limit. Roots are included; order is by source position.
func (g *Graph) Closure(roots ...*ast.FuncDecl) []*ast.FuncDecl {
	return g.walk(roots, func(*types.Func) bool { return true })
}

// Methods is Closure restricted to recv's own methods: the walk follows a
// reference only to a method declared on recv, so a free function or
// another type's method ends it.
func (g *Graph) Methods(recv *types.TypeName, roots ...*ast.FuncDecl) []*ast.FuncDecl {
	return g.walk(roots, func(fn *types.Func) bool { return receiverOf(fn) == recv })
}

// walk is the closure both Closure and Methods take, following a reference
// to a unit-local declaration when follow accepts its function.
func (g *Graph) walk(roots []*ast.FuncDecl, follow func(*types.Func) bool) []*ast.FuncDecl {
	visited := make(map[*ast.FuncDecl]bool)
	queue := append([]*ast.FuncDecl(nil), roots...)
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if fd == nil || visited[fd] {
			continue
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if fn, ok := g.info.Uses[id].(*types.Func); ok {
				if callee := g.decls[fn]; callee != nil && !visited[callee] && follow(fn) {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	out := make([]*ast.FuncDecl, 0, len(visited))
	for fd := range visited {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// Receiver returns the named type fd is a method of, through a pointer
// receiver; nil for a plain function.
func Receiver(info *types.Info, fd *ast.FuncDecl) *types.TypeName {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return receiverOf(fn)
}

func receiverOf(fn *types.Func) *types.TypeName {
	if fn == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// AccessKind classifies one field access.
type AccessKind int

// Access kinds. A compound assignment or ++/-- both reads and writes, and
// is recorded as two accesses.
const (
	// Read is a use of the field's current value.
	Read AccessKind = iota
	// Write destroys the field's current value (plain assignment LHS).
	Write
)

// An Access is one selection of a struct field inside a function body.
type Access struct {
	// Sel is the selector expression performing the access.
	Sel *ast.SelectorExpr
	// Field is the selected field object.
	Field *types.Var
	// Kind classifies the access.
	Kind AccessKind
	// Root is the object at the base of the selector chain when it is a
	// plain identifier (x in x.f or x.a.f), nil otherwise. It lets
	// flow-insensitive per-variable facts ("fields of cc overwritten
	// before cc is hashed whole") attach to the right variable.
	Root types.Object
}

// FieldAccesses classifies every struct-field selection in fn's body.
func FieldAccesses(info *types.Info, fn *ast.FuncDecl) []Access {
	var out []Access
	writes := make(map[*ast.SelectorExpr]bool)   // plain-assignment LHS
	alsoRead := make(map[*ast.SelectorExpr]bool) // compound/incdec LHS
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
					writes[sel] = true
					if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
						alsoRead[sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
				writes[sel] = true
				alsoRead[sel] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		field, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		root := rootObject(info, sel)
		if writes[sel] {
			out = append(out, Access{Sel: sel, Field: field, Kind: Write, Root: root})
			if !alsoRead[sel] {
				return true
			}
		}
		out = append(out, Access{Sel: sel, Field: field, Kind: Read, Root: root})
		return true
	})
	return out
}

// Mentioned is the set of fields FieldAccesses finds in fns, read or
// written: what the completeness passes count as a codec or an identity
// naming a field.
func Mentioned(info *types.Info, fns []*ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	for _, fd := range fns {
		for _, a := range FieldAccesses(info, fd) {
			out[a.Field] = true
		}
	}
	return out
}

// rootObject resolves the base of a selector chain to its variable, when
// the base is a plain (possibly dereferenced) identifier.
func rootObject(info *types.Info, sel *ast.SelectorExpr) types.Object {
	e := unparen(sel.X)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = unparen(x.X)
		case *ast.StarExpr:
			e = unparen(x.X)
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// A ValueUse is one place a whole value of the watched type flows out of
// the function as a unit — as a call argument — rather than field by field.
type ValueUse struct {
	// Arg is the argument expression of the watched type.
	Arg ast.Expr
	// Root is the variable the argument names, when it is a plain
	// identifier (possibly &x or *x), nil otherwise.
	Root types.Object
	// Callee is the resolved called function, nil when the call target is
	// not a statically known named function.
	Callee *types.Func
}

// ValueUses finds every call argument in fn whose type is typ (or a
// pointer to it). A whole-value use hands every field to the callee at
// once — fmt verbs, encoding/json, hash writers — which is how
// reflection-based fingerprints consume their struct.
func ValueUses(info *types.Info, fn *ast.FuncDecl, typ types.Type) []ValueUse {
	var out []ValueUse
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee *types.Func
		switch f := unparen(call.Fun).(type) {
		case *ast.Ident:
			callee, _ = info.Uses[f].(*types.Func)
		case *ast.SelectorExpr:
			callee, _ = info.Uses[f.Sel].(*types.Func)
		}
		for _, arg := range call.Args {
			t := info.TypeOf(arg)
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if !types.Identical(t, typ) {
				continue
			}
			e := unparen(arg)
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = unparen(u.X)
			}
			if s, ok := e.(*ast.StarExpr); ok {
				e = unparen(s.X)
			}
			var root types.Object
			if id, ok := e.(*ast.Ident); ok {
				root = info.Uses[id]
			}
			out = append(out, ValueUse{Arg: arg, Root: root, Callee: callee})
		}
		return true
	})
	return out
}

// MarshalsExportedOnly reports whether the callee consumes only the
// exported fields of its struct argument — the encoding/json and
// encoding/xml marshalers. Unexported fields do not flow through such a
// use, and neither do fields tagged `json:"-"`.
func MarshalsExportedOnly(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "encoding/json", "encoding/xml":
		return strings.HasPrefix(callee.Name(), "Marshal") ||
			strings.HasPrefix(callee.Name(), "Encode")
	}
	if callee.Name() == "Encode" {
		// (*json.Encoder).Encode et al resolve through the path above;
		// other encoders are unknown and treated as consuming everything.
		return false
	}
	return false
}

// JSONOmitted reports whether a field is skipped by encoding/json: either
// unexported or explicitly tagged `json:"-"`.
func JSONOmitted(field *types.Var, tag string) bool {
	if !field.Exported() {
		return true
	}
	jt, ok := reflect.StructTag(tag).Lookup("json")
	return ok && jt == "-"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
