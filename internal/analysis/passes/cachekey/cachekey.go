// Package cachekey proves cache-key completeness at compile time. The
// runner's content-addressed run cache (PR 2), the crash-safe persisted
// results (PR 4) and the snapshot identity check all assume that a struct's
// fingerprint covers every field that can change simulation output: a
// `Config`, `spec.Spec`, `policy.Spec` or `runner.Request` field that
// affects the run but is omitted from the hash makes two different runs
// alias one cache entry — and the cache then silently serves the wrong
// Result, across processes and machines. This is the static dual of the
// snapstate pass: snapshots must persist every field, fingerprints must
// hash every field.
//
// The pass applies to every struct that declares a cache-key method,
// recognized structurally by name and shape: a method named Fingerprint,
// Key, CacheKey, key or cacheKey returning uint64 or string (optionally
// with an error). For each such struct, every field must flow into the
// fingerprint, established through the dataflow layer over the method and,
// transitively, every same-package function it references:
//
//   - a read of the field anywhere in that closure (an explicit per-field
//     fold, a nil-check before folding a pointer sub-config, ...), or
//   - a whole-value use — the struct passed as a call argument (fmt verbs
//     over %+v, a hash writer, json.Marshal) — which covers every field at
//     once, EXCEPT fields first overwritten on that local copy (the
//     `cc := c; cc.Observer = nil` exclusion idiom destroys the field's
//     value before the hash sees it), and, for encoding/json marshalers,
//     except unexported fields and fields tagged `json:"-"` (reflection
//     never reads them).
//
// A field deliberately excluded carries its justification on its
// declaration line:
//
//	//simlint:nokey <reason>
//
// The reason is mandatory: "attribution-only, never influences results",
// "identity carried by SourceKey", and so on.
package cachekey

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"clustersim/internal/analysis"
	"clustersim/internal/analysis/dataflow"
)

// keyMethodNames are the method names recognized as cache-key fingerprints.
var keyMethodNames = map[string]bool{
	"Fingerprint": true,
	"Key":         true,
	"CacheKey":    true,
	"key":         true,
	"cacheKey":    true,
}

// Analyzer is the cachekey pass.
var Analyzer = &analysis.Analyzer{
	Name: "cachekey",
	Doc: "every field of a struct with a cache-key method (Fingerprint/Key/...) " +
		"must flow into the hash or be annotated //simlint:nokey",
	Run: run,
}

func run(pass *analysis.Pass) error {
	graph := dataflow.NewGraph(pass.Info, pass.Files)

	// Group the unit's cache-key methods by receiver struct type.
	type target struct {
		recv  *types.TypeName
		st    *types.Struct
		roots []*ast.FuncDecl
	}
	targets := make(map[*types.TypeName]*target)
	for _, fd := range graph.Decls() {
		if fd.Recv == nil || !keyMethodNames[fd.Name.Name] || !keyShape(pass, fd) {
			continue
		}
		recv := dataflow.Receiver(pass.Info, fd)
		if recv == nil {
			continue
		}
		st, ok := recv.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		tg := targets[recv]
		if tg == nil {
			tg = &target{recv: recv, st: st}
			targets[recv] = tg
		}
		tg.roots = append(tg.roots, fd)
	}

	// Deterministic order across the map.
	ordered := make([]*target, 0, len(targets))
	for _, tg := range targets {
		ordered = append(ordered, tg)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].recv.Pos() < ordered[j].recv.Pos()
	})

	for _, tg := range ordered {
		check(pass, graph, tg.recv, tg.st, tg.roots)
	}
	return nil
}

// check verifies one struct against the union of its cache-key methods.
func check(pass *analysis.Pass, graph *dataflow.Graph, recv *types.TypeName, st *types.Struct, roots []*ast.FuncDecl) {
	fields := make(map[types.Object]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}

	covered := make(map[types.Object]bool)
	// overwritten[v] is the set of recv's fields plainly assigned on
	// variable v somewhere in the closure: their original values are
	// destroyed before any whole-value use of v can hash them.
	overwritten := make(map[types.Object]map[types.Object]bool)
	type wholeUse struct {
		root   types.Object
		callee *types.Func
	}
	var uses []wholeUse

	for _, fd := range graph.Closure(roots...) {
		for _, a := range dataflow.FieldAccesses(pass.Info, fd) {
			if !fields[a.Field] {
				continue
			}
			switch a.Kind {
			case dataflow.Read:
				covered[a.Field] = true
			case dataflow.Write:
				if a.Root != nil {
					if overwritten[a.Root] == nil {
						overwritten[a.Root] = make(map[types.Object]bool)
					}
					overwritten[a.Root][a.Field] = true
				}
			}
		}
		for _, u := range dataflow.ValueUses(pass.Info, fd, recv.Type()) {
			if u.Callee != nil && graph.DeclOf(u.Callee) != nil {
				// A same-package callee's own body is already in the
				// closure; its field accesses speak for themselves.
				continue
			}
			uses = append(uses, wholeUse{root: u.Root, callee: u.Callee})
		}
	}

	for _, u := range uses {
		exportedOnly := dataflow.MarshalsExportedOnly(u.callee)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if exportedOnly && dataflow.JSONOmitted(f, st.Tag(i)) {
				continue
			}
			if u.root != nil && overwritten[u.root][f] {
				continue
			}
			covered[f] = true
		}
	}

	names := make([]string, 0, len(roots))
	for _, fd := range roots {
		names = append(names, fd.Name.Name)
	}
	sort.Strings(names)
	label := strings.Join(names, "/")

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" || covered[f] {
			continue
		}
		if _, exempt := pass.Nokey(f.Pos()); exempt {
			continue
		}
		pass.Reportf(f.Pos(),
			"field %s.%s does not flow into the %s cache-key hash and is not annotated "+
				"//simlint:nokey <reason>; two runs differing only in %s would alias one cached result",
			recv.Name(), f.Name(), label, f.Name())
	}
}

// keyShape reports whether fd looks like a fingerprint: it takes no
// parameters and returns uint64 or string, optionally with a trailing
// error. Accessors that happen to share a recognized name but return other
// types (a map key field, ...) are not cache keys.
func keyShape(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 0 {
		return false
	}
	res := sig.Results()
	if res.Len() < 1 || res.Len() > 2 {
		return false
	}
	first, ok := res.At(0).Type().Underlying().(*types.Basic)
	if !ok || (first.Kind() != types.Uint64 && first.Kind() != types.String) {
		return false
	}
	if res.Len() == 2 {
		named, ok := res.At(1).Type().(*types.Named)
		if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
			return false
		}
	}
	return true
}
