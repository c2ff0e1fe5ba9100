// Package snapstate proves checkpoint completeness at compile time. The
// CSIM-SNAP layer (PR 4) assumes that every codec covers every field of
// its machine struct; a field added to a component but not to its
// codec's field list corrupts resumed runs silently — the snapshot loads
// cleanly and the divergence only surfaces (maybe) as a flaky
// ResumeEquivalence oracle hours later.
//
// The pass applies to every struct type that declares a snapshot codec,
// recognized structurally:
//
//	any method taking a *snap.Codec  (State, the snap.Stater interface,
//	                                  and unexported field lists)
//	SaveCheckpoint / LoadCheckpoint  (the processor's versioned header)
//
// A codec names each field once, for both directions, so one mention in
// the list covers the save and the load alike.
//
// For each such struct, every field must either be mentioned — selected
// through any value of the type — inside the codec bodies (methods of the
// same type that the codecs call, like (*Processor).at or Checkpointable,
// are followed transitively), or carry an explicit exemption on its
// declaration line:
//
//	//simlint:nostate <reason>
//
// The reason is mandatory: "rebuilt by the constructor", "observer hook,
// checkpointing is refused while attached", and so on. Mentioning a field
// is deliberately a weak proxy for serializing it — the pass is a drift
// alarm, not a codec verifier; the ResumeEquivalence oracle remains the
// ground truth for value-level correctness.
package snapstate

import (
	"go/ast"
	"go/types"

	"clustersim/internal/analysis"
)

// codecPkg and codecType name the two-way codec whose pointer marks a
// method as a snapshot codec.
const (
	codecPkg  = "clustersim/internal/snap"
	codecType = "Codec"
)

// checkpointMethods are the processor's codec wrappers, recognized by name:
// they take an io.Writer or io.Reader rather than a codec.
var checkpointMethods = []string{"SaveCheckpoint", "LoadCheckpoint"}

// Analyzer is the snapstate pass.
var Analyzer = &analysis.Analyzer{
	Name: "snapstate",
	Doc: "every field of a struct with a snapshot codec must be serialized " +
		"or annotated //simlint:nostate",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Index every method declaration in the unit by receiver type.
	methods := make(map[*types.TypeName]map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := receiverTypeName(pass, fd)
			if recv == nil {
				continue
			}
			if methods[recv] == nil {
				methods[recv] = make(map[string]*ast.FuncDecl)
			}
			methods[recv][fd.Name.Name] = fd
		}
	}

	for recv, ms := range methods {
		var roots []*ast.FuncDecl
		for _, fd := range ms {
			if takesCodec(pass, fd) {
				roots = append(roots, fd)
			}
		}
		for _, name := range checkpointMethods {
			if fd, ok := ms[name]; ok {
				roots = append(roots, fd)
			}
		}
		if len(roots) == 0 {
			continue
		}
		st, ok := recv.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		covered := coverage(pass, recv, ms, roots)
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Name() == "_" || covered[field] {
				continue
			}
			if _, exempt := pass.Nostate(field.Pos()); exempt {
				continue
			}
			pass.Reportf(field.Pos(),
				"field %s.%s is not serialized by the %s snapshot codec and not annotated "+
					"//simlint:nostate <reason>; checkpointed runs will silently drop it",
				recv.Name(), field.Name(), recv.Name())
		}
	}
	return nil
}

// coverage walks the codec methods and, transitively, every same-receiver
// method they call, collecting the set of recv's fields they mention.
func coverage(pass *analysis.Pass, recv *types.TypeName, ms map[string]*ast.FuncDecl, roots []*ast.FuncDecl) map[types.Object]bool {
	fields := make(map[types.Object]bool)
	st := recv.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}

	covered := make(map[types.Object]bool)
	visited := make(map[*ast.FuncDecl]bool)
	queue := append([]*ast.FuncDecl(nil), roots...)
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if visited[fd] {
			continue
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := pass.Info.Selections[sel]; s != nil {
				if s.Kind() == types.FieldVal && fields[s.Obj()] {
					covered[s.Obj()] = true
				}
				// Follow calls to other methods of the same type so
				// helpers like (*Processor).at contribute coverage.
				if s.Kind() == types.MethodVal {
					if fn, ok := s.Obj().(*types.Func); ok && receiverBase(fn) == recv {
						if callee, ok := ms[fn.Name()]; ok && !visited[callee] {
							queue = append(queue, callee)
						}
					}
				}
			}
			return true
		})
	}
	return covered
}

// takesCodec reports whether fd has a *snap.Codec parameter.
func takesCodec(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		ptr, ok := pass.TypeOf(field.Type).(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if ok && named.Obj().Name() == codecType && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == codecPkg {
			return true
		}
	}
	return false
}

// receiverTypeName resolves a method declaration's receiver to its named
// type, unwrapping a pointer receiver.
func receiverTypeName(pass *analysis.Pass, fd *ast.FuncDecl) *types.TypeName {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// receiverBase returns the named-type object of fn's receiver, or nil.
func receiverBase(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
