// Package analysis is a self-contained static-analysis framework for the
// simulator's own invariants. It mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a Run function that
// inspects one type-checked package through a Pass and reports Diagnostics —
// but is built purely on the standard library so the linter needs no module
// downloads: packages are loaded and type-checked from source (see load.go).
//
// The framework also owns the //simlint: annotation grammar shared by every
// pass:
//
//	//simlint:allow <rule> <reason>
//	//simlint:nostate <reason>
//	//simlint:nokey <reason>
//	//simlint:alloc <reason>
//	//simlint:hot [note]
//
// An allow comment suppresses diagnostics of analyzer <rule> on its own
// line, or — when it stands alone on a line — on the line directly below
// it. A nostate comment exempts a struct field from the snapstate pass, a
// nokey comment exempts a struct field from the cachekey pass, and an
// alloc comment suppresses the hotalloc pass on its line (shorthand for
// //simlint:allow hotalloc). A hot comment marks the function declared on
// (or directly below) its line as a hot-path root for the hotalloc pass;
// it designates rather than suppresses, so its trailing note is optional.
// Every suppressing form requires a non-empty reason; a malformed
// annotation is itself reported, under the reserved rule name "simlint",
// and cannot be suppressed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass; it is the <rule> accepted by
	// //simlint:allow comments and the prefix printed on diagnostics.
	Name string
	// Doc is a one-paragraph description shown by `simlint -list`.
	Doc string
	// Run inspects a single package and reports findings through
	// pass.Report. Returning an error aborts the whole simlint run; a
	// finding is a diagnostic, not an error.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to the package unit under inspection.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed files of the unit. For a test unit this
	// includes the base files (the type checker needs them), but only
	// diagnostics landing in the unit's report set survive (see Run).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TestUnit is true when the unit includes _test.go files. Passes that
	// only constrain production code (nopanic) skip such units.
	TestUnit bool

	report func(Diagnostic)
	// ix caches the unit's annotation index; shared across analyzers by
	// Run, built lazily when analysistest drives a single Pass directly.
	ix *annotationIndex
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// AnnotationPrefix starts every simlint annotation comment.
const AnnotationPrefix = "//simlint:"

// parseAnnotation parses one comment, returning ok=false when the comment
// is not a simlint annotation at all. A malformed annotation (unknown verb,
// missing rule or reason) yields ok=true with a non-nil err.
func parseAnnotation(text string) (verb, rule, reason string, ok bool, err error) {
	if !strings.HasPrefix(text, AnnotationPrefix) {
		return "", "", "", false, nil
	}
	body := strings.TrimPrefix(text, AnnotationPrefix)
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return "", "", "", true, fmt.Errorf("empty simlint annotation")
	}
	switch fields[0] {
	case "allow":
		if len(fields) < 3 {
			return "", "", "", true, fmt.Errorf(
				"simlint:allow needs a rule and a reason: //simlint:allow <rule> <reason>")
		}
		return "allow", fields[1], strings.Join(fields[2:], " "), true, nil
	case "nostate", "nokey", "alloc":
		if len(fields) < 2 {
			return "", "", "", true, fmt.Errorf(
				"simlint:%s needs a reason: //simlint:%s <reason>", fields[0], fields[0])
		}
		return fields[0], "", strings.Join(fields[1:], " "), true, nil
	case "hot":
		// A designation, not a suppression: the note is optional.
		return "hot", "", strings.Join(fields[1:], " "), true, nil
	default:
		return "", "", "", true, fmt.Errorf(
			"unknown simlint annotation %q (want allow, nostate, nokey, alloc or hot)", fields[0])
	}
}

// annotationIndex holds every well-formed annotation of a unit, keyed for
// the lookups passes need: allow-by-line, field exemptions by line, and
// hot-root designations by line.
type annotationIndex struct {
	// allow maps file:line to the set of allowed rules there.
	allow map[string]map[string]bool
	// nostate maps file:line to the exemption reason.
	nostate map[string]string
	// nokey maps file:line to the cachekey exemption reason.
	nokey map[string]string
	// hot maps file:line to true where a //simlint:hot marker designates
	// the function declared there as a hot-path root.
	hot map[string]bool
	// malformed collects broken annotations as diagnostics.
	malformed []Diagnostic
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// indexAnnotations scans all comments of the given files.
func indexAnnotations(fset *token.FileSet, files []*ast.File) *annotationIndex {
	ix := &annotationIndex{
		allow:   make(map[string]map[string]bool),
		nostate: make(map[string]string),
		nokey:   make(map[string]string),
		hot:     make(map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rule, reason, ok, err := parseAnnotation(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if err != nil {
					ix.malformed = append(ix.malformed, Diagnostic{
						Analyzer: "simlint",
						Pos:      pos,
						Message:  err.Error(),
					})
					continue
				}
				standalone := pos.Column == firstColumnOnLine(fset, f, c)
				lines := []int{pos.Line}
				if standalone {
					lines = append(lines, pos.Line+1)
				}
				for _, ln := range lines {
					key := lineKey(pos.Filename, ln)
					switch verb {
					case "allow":
						if ix.allow[key] == nil {
							ix.allow[key] = make(map[string]bool)
						}
						ix.allow[key][rule] = true
					case "alloc":
						// Per-site hotalloc opt-out: shorthand for
						// //simlint:allow hotalloc <reason>.
						if ix.allow[key] == nil {
							ix.allow[key] = make(map[string]bool)
						}
						ix.allow[key]["hotalloc"] = true
					case "nostate":
						ix.nostate[key] = reason
					case "nokey":
						ix.nokey[key] = reason
					case "hot":
						ix.hot[key] = true
					}
				}
			}
		}
	}
	return ix
}

// firstColumnOnLine reports the comment's column if it begins its line.
// Comments trailing code share the line with that code, so the code token
// occupies an earlier column; we detect "standalone" by checking whether
// any declaration or statement token of the file starts before the comment
// on the same line. Walking tokens precisely is overkill: end-of-line
// comments in gofmt'd code always follow code at column > 1 while
// standalone comments are indented like the block they document, so we
// treat a comment as standalone when no node of the file both starts on
// the comment's line and precedes it.
func firstColumnOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) int {
	cpos := fset.Position(c.Pos())
	first := cpos.Column
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		npos := fset.Position(n.Pos())
		if npos.Line == cpos.Line && npos.Column < first {
			first = npos.Column
		}
		// Descend only into nodes spanning the comment's line.
		return fset.Position(n.Pos()).Line <= cpos.Line && fset.Position(n.End()).Line >= cpos.Line
	})
	return first
}

// Nostate reports whether the line holding pos (or the line above it, for a
// standalone comment) carries a //simlint:nostate exemption, and returns
// its reason.
func (p *Pass) Nostate(pos token.Pos) (string, bool) {
	position := p.Fset.Position(pos)
	reason, ok := p.annotations().nostate[lineKey(position.Filename, position.Line)]
	return reason, ok
}

// Nokey reports whether the line holding pos carries a //simlint:nokey
// exemption (a field deliberately excluded from its struct's cache-key
// fingerprint), and returns its reason.
func (p *Pass) Nokey(pos token.Pos) (string, bool) {
	position := p.Fset.Position(pos)
	reason, ok := p.annotations().nokey[lineKey(position.Filename, position.Line)]
	return reason, ok
}

// HotRoot reports whether the line holding pos carries a //simlint:hot
// designation (the hotalloc pass roots its call-graph closure there).
func (p *Pass) HotRoot(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.annotations().hot[lineKey(position.Filename, position.Line)]
}

// annotations lazily builds the unit's annotation index. The index is
// attached to the unit (shared across analyzers) by Run.
func (p *Pass) annotations() *annotationIndex {
	if p.ix == nil {
		p.ix = indexAnnotations(p.Fset, p.Files)
	}
	return p.ix
}

// Run executes every analyzer over every package unit and returns the
// surviving diagnostics sorted by position. Suppressed findings
// (//simlint:allow on the diagnostic's line) are dropped; malformed
// annotations are appended as "simlint" diagnostics. Only diagnostics
// positioned in a unit's report set (the files the unit introduced) are
// kept, so base files are not double-reported through test units.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	seenMalformed := make(map[string]bool)
	for _, u := range units {
		ix := indexAnnotations(u.Fset, u.Files)
		for _, d := range ix.malformed {
			key := d.Pos.String()
			if !seenMalformed[key] && u.reportable(d.Pos.Filename) {
				seenMalformed[key] = true
				diags = append(diags, d)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     u.Fset,
				Files:    u.Files,
				Pkg:      u.Types,
				Info:     u.Info,
				TestUnit: u.TestUnit,
				ix:       ix,
			}
			pass.report = func(d Diagnostic) {
				if !u.reportable(d.Pos.Filename) {
					return
				}
				if rules := ix.allow[lineKey(d.Pos.Filename, d.Pos.Line)]; rules[d.Analyzer] {
					return
				}
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }
