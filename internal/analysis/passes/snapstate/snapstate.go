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
// through any value of the type, read or written — inside the codec bodies,
// or carry an explicit exemption on its declaration line:
//
//	//simlint:nostate <reason>
//
// The reason is mandatory: "rebuilt by the constructor", "observer hook,
// checkpointing is refused while attached", and so on. Mentioning a field
// is deliberately a weak proxy for serializing it — the pass is a drift
// alarm, not a codec verifier; the ResumeEquivalence oracle remains the
// ground truth for value-level correctness.
//
// The pass runs on the dataflow layer: its walk follows the codecs into
// methods of the same receiver that they reference, like (*Processor).at
// or Checkpointable, transitively, and no further. A free function or
// another type's method that a codec calls does not cover the codec's
// fields, since only the receiver's own methods form its field list.
package snapstate

import (
	"go/ast"
	"go/types"

	"clustersim/internal/analysis"
	"clustersim/internal/analysis/dataflow"
)

// codecPkg and codecType name the two-way codec whose pointer marks a
// method as a snapshot codec.
const (
	codecPkg  = "clustersim/internal/snap"
	codecType = "Codec"
)

// checkpointMethods are the processor's codec wrappers, recognized by name:
// they take an io.Writer or io.Reader rather than a codec.
var checkpointMethods = map[string]bool{"SaveCheckpoint": true, "LoadCheckpoint": true}

// Analyzer is the snapstate pass.
var Analyzer = &analysis.Analyzer{
	Name: "snapstate",
	Doc: "every field of a struct with a snapshot codec must be serialized " +
		"or annotated //simlint:nostate",
	Run: run,
}

func run(pass *analysis.Pass) error {
	graph := dataflow.NewGraph(pass.Info, pass.Files)
	codecs := make(map[*types.TypeName][]*ast.FuncDecl)
	for _, fd := range graph.Decls() {
		recv := dataflow.Receiver(pass.Info, fd)
		if recv != nil && (takesCodec(pass, fd) || checkpointMethods[fd.Name.Name]) {
			codecs[recv] = append(codecs[recv], fd)
		}
	}

	for recv, roots := range codecs {
		st, ok := recv.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		covered := dataflow.Mentioned(pass.Info, graph.Methods(recv, roots...))
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
