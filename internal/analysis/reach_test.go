package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"strings"
	"testing"
)

// TestProductionReached keeps production code to what production reaches.
// It loads every production package of the module (bench/ and examples/
// included, testdata excluded) and walks the package-level declarations
// from every main and init function, every blank-named var (an
// initializer that runs at start-up), and every entry of
// testdata/reach.allow. Every production declaration must be reached: one
// that only tests use belongs in that package's _test.go files, and one
// that nothing uses goes. Reaching a named type reaches all of its
// methods, and methods themselves are never flagged, because interface
// dispatch hides their callers.
//
// reach.allow holds one "<import path>.<Name>  <reason>" line per
// declaration that no program reaches but that stays on purpose: the
// facade's documented API and constructors the tests of several packages
// share. A line naming a declaration that does not exist, or that the
// programs reach anyway, fails the test too, so the list cannot go stale.
func TestProductionReached(t *testing.T) {
	l, err := NewLoader("../..", false)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	units, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	g := newReachGraph(units)
	data, err := os.ReadFile("testdata/reach.allow")
	if err != nil {
		t.Fatal(err)
	}

	fromPrograms := g.walk(g.edges[nil])
	var allowed []types.Object
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		obj := g.byName[name]
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("reach.allow:%d: %s has no reason", i+1, name)
		case obj == nil:
			t.Errorf("reach.allow:%d: %s is not a package-level declaration of the module", i+1, name)
		case fromPrograms[obj]:
			t.Errorf("reach.allow:%d: %s is reached from a program; delete the line", i+1, name)
		}
		if obj != nil {
			allowed = append(allowed, obj)
		}
	}
	reached := g.walk(append(allowed, g.edges[nil]...))
	for _, obj := range g.decls {
		if !reached[obj] {
			t.Errorf("%s: %s is reached by no main, init or reach.allow line: use it, delete it, move it into the tests that use it, or list it in testdata/reach.allow with a reason",
				units[0].Fset.Position(obj.Pos()), qualifiedName(obj))
		}
	}
}

// reachGraph is the module's package-level declarations and the uses
// between them.
type reachGraph struct {
	local  map[*types.Package]bool // the module's packages
	info   *types.Info             // the unit being added
	decls  []types.Object          // every checked declaration, in source order
	byName map[string]types.Object // qualifiedName -> declaration
	// edges maps a declaration to what it uses. The nil key holds what
	// main, init and blank vars use: the roots.
	edges map[types.Object][]types.Object
}

func newReachGraph(units []*Unit) *reachGraph {
	g := &reachGraph{
		local:  make(map[*types.Package]bool),
		byName: make(map[string]types.Object),
		edges:  make(map[types.Object][]types.Object),
	}
	for _, u := range units {
		g.local[u.Types] = true
	}
	for _, u := range units {
		g.info = u.Info
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv != nil:
						if recv := g.node(u.Info.Defs[d.Name]); recv != nil {
							g.use(recv, d)
						}
					case d.Name.Name == "init" || (d.Name.Name == "main" && u.Types.Name() == "main"):
						g.use(nil, d)
					default:
						g.declare(u.Info.Defs[d.Name], d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							g.declare(u.Info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.Name == "_" {
									g.use(nil, s)
									continue
								}
								obj := u.Info.Defs[name]
								g.declare(obj, s)
								// An implicitly repeated constant (the rest
								// of an iota block) names no type of its own.
								if tn := g.node(namedTypeName(obj.Type())); tn != nil {
									g.edges[obj] = append(g.edges[obj], tn)
								}
							}
						}
					}
				}
			}
		}
	}
	return g
}

// node maps a used object to the graph node standing for it: a method
// stands for its receiver's named type, an instantiation for its generic
// origin. Objects outside the module, and local ones not declared at
// package level, are no node.
func (g *reachGraph) node(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		obj = fn
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			obj = namedTypeName(recv.Type())
		}
	}
	if obj == nil || !g.local[obj.Pkg()] || obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// declare records obj as a checked declaration whose uses are the
// identifiers under n.
func (g *reachGraph) declare(obj types.Object, n ast.Node) {
	g.decls = append(g.decls, obj)
	g.byName[qualifiedName(obj)] = obj
	g.use(obj, n)
}

// use adds an edge from owner to every node an identifier under n uses. A
// nil owner stands for the programs: its edges are the roots.
func (g *reachGraph) use(owner types.Object, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if to := g.node(g.info.Uses[id]); to != nil {
				g.edges[owner] = append(g.edges[owner], to)
			}
		}
		return true
	})
}

// walk returns the set of nodes reachable from roots.
func (g *reachGraph) walk(roots []types.Object) map[types.Object]bool {
	seen := make(map[types.Object]bool)
	for stack := append([]types.Object(nil), roots...); len(stack) > 0; {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[obj] {
			seen[obj] = true
			stack = append(stack, g.edges[obj]...)
		}
	}
	return seen
}

// namedTypeName returns the declared name of t's named type, looking
// through a pointer, or nil when t has none.
func namedTypeName(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// qualifiedName is obj's import path and name, as reach.allow spells it.
func qualifiedName(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }
