package dataflow

import (
	"go/ast"
	"go/types"
	"testing"

	"clustersim/internal/analysis"
)

// loadFixture type-checks the df fixture package and returns its unit.
func loadFixture(t *testing.T) *analysis.Unit {
	t.Helper()
	loader := analysis.NewFixtureLoader("testdata/src")
	units, err := loader.Load("df")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(units) == 0 {
		t.Fatal("no units loaded")
	}
	return units[0]
}

func declByName(g *Graph, name string) *ast.FuncDecl {
	for _, fd := range g.Decls() {
		if fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

func TestClosure(t *testing.T) {
	u := loadFixture(t)
	g := NewGraph(u.Info, u.Files)
	got := g.Closure(declByName(g, "root"))
	names := make(map[string]bool)
	for _, fd := range got {
		names[fd.Name.Name] = true
	}
	for _, want := range []string{"root", "helperA", "helperB"} {
		if !names[want] {
			t.Errorf("closure(root) is missing %s (have %v)", want, names)
		}
	}
	if names["unreached"] {
		t.Errorf("closure(root) wrongly includes unreached")
	}
}

func TestFieldAccesses(t *testing.T) {
	u := loadFixture(t)
	g := NewGraph(u.Info, u.Files)
	fd := declByName(g, "accesses")
	var reads, writes []string
	for _, a := range FieldAccesses(u.Info, fd) {
		switch a.Kind {
		case Read:
			reads = append(reads, a.Field.Name())
		case Write:
			writes = append(writes, a.Field.Name())
		}
	}
	has := func(s []string, v string) bool {
		for _, x := range s {
			if x == v {
				return true
			}
		}
		return false
	}
	if !has(writes, "A") || !has(writes, "B") {
		t.Errorf("writes = %v, want A and B", writes)
	}
	if !has(reads, "A") || !has(reads, "B") {
		t.Errorf("reads = %v, want A (rvalue) and B (compound)", reads)
	}
	// c.A = 0 must not register a Read for that selector alone — the read
	// of A comes only from the return expression.
	nA := 0
	for _, r := range reads {
		if r == "A" {
			nA++
		}
	}
	if nA != 1 {
		t.Errorf("A read %d times, want exactly 1 (the return expression)", nA)
	}
}

func TestValueUses(t *testing.T) {
	u := loadFixture(t)
	g := NewGraph(u.Info, u.Files)
	fd := declByName(g, "wholeValue")
	var confType types.Type
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "cc" {
			if obj := u.Info.Defs[id]; obj != nil {
				confType = obj.Type()
			}
		}
		return true
	})
	if confType == nil {
		t.Fatal("could not resolve conf type")
	}
	uses := ValueUses(u.Info, fd, confType)
	if len(uses) != 1 {
		t.Fatalf("ValueUses = %d, want 1 (fmt.Println(cc))", len(uses))
	}
	if uses[0].Root == nil || uses[0].Root.Name() != "cc" {
		t.Errorf("use root = %v, want cc", uses[0].Root)
	}
	if uses[0].Callee == nil || uses[0].Callee.Name() != "Println" {
		t.Errorf("use callee = %v, want fmt.Println", uses[0].Callee)
	}
}

func TestAllocSites(t *testing.T) {
	u := loadFixture(t)
	g := NewGraph(u.Info, u.Files)
	fd := declByName(g, "allocs")
	counts := make(map[AllocKind]int)
	for _, s := range AllocSites(u.Info, fd) {
		counts[s.Kind]++
	}
	// append growth: one site (the presized append is exempt).
	if counts[AllocAppend] != 1 {
		t.Errorf("AllocAppend = %d, want 1", counts[AllocAppend])
	}
	// &conf{...}, []int{...}, map literal.
	if counts[AllocComposite] != 3 {
		t.Errorf("AllocComposite = %d, want 3 (&conf, []int, map)", counts[AllocComposite])
	}
	if counts[AllocClosure] != 1 {
		t.Errorf("AllocClosure = %d, want 1 (only the capturing literal)", counts[AllocClosure])
	}
	if counts[AllocIface] < 1 {
		t.Errorf("AllocIface = %d, want >= 1 (fmt.Println boxes its argument)", counts[AllocIface])
	}
	if counts[AllocMapRange] != 1 {
		t.Errorf("AllocMapRange = %d, want 1", counts[AllocMapRange])
	}
}

func TestMethods(t *testing.T) {
	u := loadFixture(t)
	g := NewGraph(u.Info, u.Files)
	codec := declByName(g, "codec")
	recv := Receiver(u.Info, codec)
	if recv == nil || recv.Name() != "box" {
		t.Fatalf("Receiver(codec) = %v, want box", recv)
	}
	if r := Receiver(u.Info, declByName(g, "freeHop")); r != nil {
		t.Errorf("Receiver(freeHop) = %v, want nil", r)
	}
	names := func(fds []*ast.FuncDecl) map[string]bool {
		m := make(map[string]bool)
		for _, fd := range fds {
			m[fd.Name.Name] = true
		}
		return m
	}
	methods := g.Methods(recv, codec)
	if got := names(methods); len(got) != 2 || !got["codec"] || !got["hop"] {
		t.Errorf("Methods(box, codec) = %v, want codec and hop", got)
	}
	if got := names(g.Closure(codec)); !got["freeHop"] {
		t.Errorf("Closure(codec) = %v, want it to include freeHop", got)
	}
	mentioned := make(map[string]bool)
	for f := range Mentioned(u.Info, methods) {
		mentioned[f.Name()] = true
	}
	if !mentioned["v"] || mentioned["w"] {
		t.Errorf("Mentioned(Methods) = %v, want v and not w", mentioned)
	}
}
