// Package statsconserve proves that statistics structs stay covered by
// their conservation identities. The differential-oracle checker (PR 3)
// validates mem.Stats and interconnect.Stats against Conserved() after
// every interval; a counter added to the struct but not to Conserved would
// silently escape that net. This pass closes the gap structurally: for
// every struct named Stats that declares a Conserved method, each numeric
// field must be mentioned inside Conserved (or a Merge/Add combiner, for
// fields that conservation cannot constrain but merging must preserve), or
// carry an explicit //simlint:allow statsconserve <reason> annotation.
//
// The pass runs on the dataflow layer but follows no call: only the bodies
// of the covering methods count, so a field that Conserved reaches through
// a helper method is still reported. Embedded fields are out of scope.
package statsconserve

import (
	"go/ast"
	"go/types"

	"clustersim/internal/analysis"
	"clustersim/internal/analysis/dataflow"
)

// Analyzer is the statsconserve pass.
var Analyzer = &analysis.Analyzer{
	Name: "statsconserve",
	Doc: "every numeric field of a Stats struct with a Conserved method " +
		"must appear in its Conserved/Merge identities",
	Run: run,
}

// coveringMethods are the method names whose bodies count as coverage.
var coveringMethods = map[string]bool{
	"Conserved": true,
	"Merge":     true,
	"merge":     true,
	"Add":       true,
	"add":       true,
}

func run(pass *analysis.Pass) error {
	// Gather the covering methods of the unit's Stats types.
	covering := make(map[*types.TypeName][]*ast.FuncDecl)
	conserved := make(map[*types.TypeName]bool)
	for _, fd := range dataflow.NewGraph(pass.Info, pass.Files).Decls() {
		recv := dataflow.Receiver(pass.Info, fd)
		if recv == nil || recv.Name() != "Stats" || !coveringMethods[fd.Name.Name] {
			continue
		}
		covering[recv] = append(covering[recv], fd)
		if fd.Name.Name == "Conserved" {
			conserved[recv] = true
		}
	}

	for recv := range conserved {
		st, ok := recv.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		covered := dataflow.Mentioned(pass.Info, covering[recv])
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if field.Embedded() || field.Name() == "_" || !isNumeric(field.Type()) || covered[field] {
				continue
			}
			pass.Reportf(field.Pos(),
				"numeric field %s.%s is missing from the Conserved/Merge identities; "+
					"add it to a conservation check or annotate //simlint:allow statsconserve <reason>",
				recv.Name(), field.Name())
		}
	}
	return nil
}

func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
