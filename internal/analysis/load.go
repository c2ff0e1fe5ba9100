package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Unit is one type-checked collection of files ready for analysis. A
// package yields up to three units: the base unit (production files), an
// in-package test unit (production + same-package _test.go files, needed
// because test files see unexported identifiers), and an external test
// unit (the package's *_test external test package, if any). Test units
// re-parse the production files for the type checker but only report
// diagnostics from the files they introduce.
type Unit struct {
	Path     string // import path
	Dir      string
	Fset     *token.FileSet
	Files    []*ast.File
	Types    *types.Package
	Info     *types.Info
	TestUnit bool

	// reportFiles is the set of absolute filenames whose diagnostics this
	// unit owns.
	reportFiles map[string]bool
}

func (u *Unit) reportable(filename string) bool { return u.reportFiles[filename] }

// A Loader parses and type-checks the packages of one module from source.
// It needs no network and no pre-built export data: module-local imports
// are resolved recursively from the module tree, everything else through
// the standard library's source importer (which compiles the imported
// package from GOROOT source).
type Loader struct {
	// Root is the module root directory (the one holding go.mod).
	Root string
	// Tests controls whether *_test.go files are loaded as extra units.
	Tests bool

	fset    *token.FileSet
	module  string // module path from go.mod
	std     types.ImporterFrom
	cache   map[string]*buildResult // import path -> type-checked base package
	loading map[string]bool         // import-cycle detection
}

type buildResult struct {
	pkg   *types.Package
	unit  *Unit
	err   error
	files []*ast.File
	// checker and info stay alive so in-package test files can later be
	// checked into the same *types.Package: sharing the identity keeps
	// the augmented package compatible with every dependency that was
	// resolved against the base variant (an external test package
	// imports both).
	checker *types.Checker
	info    *types.Info
}

// NewLoader returns a Loader for the module rooted at dir.
func NewLoader(dir string, tests bool) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	return newLoader(dir, modPath, tests), nil
}

// NewFixtureLoader returns a Loader over a GOPATH-style source tree (used
// by analysistest corpora): the import path of a package is its directory
// path relative to srcRoot, with no go.mod required.
func NewFixtureLoader(srcRoot string) *Loader {
	return newLoader(srcRoot, "", true)
}

func newLoader(dir, module string, tests bool) *Loader {
	// The source importer honours build.Default; with cgo enabled it
	// would try to preprocess cgo-using std packages (net, ...) through
	// the C toolchain. The pure-Go fallbacks type-check identically, so
	// force them.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &Loader{
		Root:    dir,
		Tests:   tests,
		fset:    fset,
		module:  module,
		cache:   make(map[string]*buildResult),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves the given package patterns ("./...", "./dir/...", "./dir",
// ".") relative to the module root and returns the units of every matched
// package, in deterministic order. Type errors in a package are returned
// as an aggregated error after all loadable units.
func (l *Loader) Load(patterns ...string) ([]*Unit, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	var errs []string
	for _, dir := range dirs {
		us, err := l.loadDir(dir)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		units = append(units, us...)
	}
	if len(errs) > 0 {
		return units, fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return units, nil
}

// expand turns patterns into a sorted list of package directories (absolute
// paths) containing at least one non-test .go file.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: walking %s: %w", base, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a package directory to its import path in the module
// (or, in fixture mode, to its path relative to the source root).
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if l.module == "" {
		return filepath.ToSlash(rel), nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module-local import path back to its directory, or returns
// false when the path does not belong to the module. In fixture mode any
// path with a matching directory under the source root is local.
func (l *Loader) dirFor(path string) (string, bool) {
	if l.module == "" {
		dir := filepath.Join(l.Root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
		return "", false
	}
	if path == l.module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer by delegating module-local paths to the
// loader and everything else to the standard library's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if d, ok := l.dirFor(path); ok {
		res := l.buildBase(path, d)
		if res.err != nil {
			return nil, res.err
		}
		return res.pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// splitSources classifies a directory's files. goFiles are production
// sources, testFiles are same-package _test.go files, xtestFiles belong to
// the external <pkg>_test package. Like go vet, it sees the default build:
// a file whose build constraints exclude it (the //go:build race half of a
// race/!race pair, say) is skipped, or it would redeclare its twin's names.
func splitSources(dir string) (goFiles, testFiles, xtestFiles []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, merr := build.Default.MatchFile(dir, name)
		if merr != nil {
			return nil, nil, nil, merr
		}
		if !match {
			continue
		}
		full := filepath.Join(dir, name)
		if strings.HasSuffix(name, "_test.go") {
			pkgName, perr := packageName(full)
			if perr != nil {
				return nil, nil, nil, perr
			}
			if strings.HasSuffix(pkgName, "_test") {
				xtestFiles = append(xtestFiles, full)
			} else {
				testFiles = append(testFiles, full)
			}
			continue
		}
		goFiles = append(goFiles, full)
	}
	sort.Strings(goFiles)
	sort.Strings(testFiles)
	sort.Strings(xtestFiles)
	return goFiles, testFiles, xtestFiles, nil
}

// packageName reads just the package clause of a file.
func packageName(file string) (string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	return f.Name.Name, nil
}

func (l *Loader) parse(files []string) ([]*ast.File, error) {
	var parsed []*ast.File
	for _, file := range files {
		f, err := parser.ParseFile(l.fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	return parsed, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// check type-checks files as a fresh package.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := newInfo()
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return pkg, info, firstErr
	}
	if err != nil {
		return pkg, info, err
	}
	return pkg, info, nil
}

// buildBase loads, parses and type-checks the production files of one
// module-local package, memoized per import path.
func (l *Loader) buildBase(path, dir string) *buildResult {
	if res, ok := l.cache[path]; ok {
		return res
	}
	if l.loading[path] {
		res := &buildResult{err: fmt.Errorf("analysis: import cycle through %s", path)}
		l.cache[path] = res
		return res
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	res := &buildResult{}
	goFiles, _, _, err := splitSources(dir)
	if err != nil {
		res.err = fmt.Errorf("analysis: %s: %w", path, err)
		l.cache[path] = res
		return res
	}
	if len(goFiles) == 0 {
		res.err = fmt.Errorf("analysis: %s: no non-test Go files in %s", path, dir)
		l.cache[path] = res
		return res
	}
	files, err := l.parse(goFiles)
	if err != nil {
		res.err = fmt.Errorf("analysis: %s: %w", path, err)
		l.cache[path] = res
		return res
	}
	info := newInfo()
	var firstErr error
	conf := &types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg := types.NewPackage(path, files[0].Name.Name)
	checker := types.NewChecker(conf, l.fset, pkg, info)
	err = checker.Files(files)
	if firstErr != nil {
		err = firstErr
	}
	if err != nil {
		res.err = fmt.Errorf("analysis: %s: %w", path, err)
		l.cache[path] = res
		return res
	}
	reportFiles := make(map[string]bool, len(goFiles))
	for _, f := range goFiles {
		reportFiles[f] = true
	}
	res.pkg = pkg
	res.files = files
	res.checker = checker
	res.info = info
	res.unit = &Unit{
		Path:        path,
		Dir:         dir,
		Fset:        l.fset,
		Files:       files,
		Types:       pkg,
		Info:        info,
		reportFiles: reportFiles,
	}
	l.cache[path] = res
	return res
}

// loadDir builds every unit of the package in dir: the base unit (when the
// directory has production files), the in-package test unit, and the
// external test unit. Test-only directories (e.g. examples/) yield only
// test units.
func (l *Loader) loadDir(dir string) ([]*Unit, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	goFiles, testFiles, xtestFiles, err := splitSources(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var units []*Unit
	var base *buildResult
	if len(goFiles) > 0 {
		base = l.buildBase(path, dir)
		if base.err != nil {
			return nil, base.err
		}
		units = append(units, base.unit)
	}
	if !l.Tests {
		return units, nil
	}
	if len(testFiles) > 0 {
		parsedTests, err := l.parse(testFiles)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		var all []*ast.File
		var pkg *types.Package
		var info *types.Info
		if base != nil {
			// Check the test files into the base package through its
			// retained checker: the augmented package keeps the base's
			// identity, exactly like go test, where export_test.go
			// shims become part of the package every dependent of the
			// test binary links against.
			if err := base.checker.Files(parsedTests); err != nil {
				return nil, fmt.Errorf("analysis: %s [tests]: %w", path, err)
			}
			all = append(append([]*ast.File{}, base.files...), parsedTests...)
			pkg, info = base.pkg, base.info
		} else {
			// Test-only directory: the in-package test files form the
			// package by themselves.
			all = parsedTests
			var err error
			pkg, info, err = l.check(path, parsedTests)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s [tests]: %w", path, err)
			}
		}
		reportFiles := make(map[string]bool, len(testFiles))
		for _, f := range testFiles {
			reportFiles[f] = true
		}
		units = append(units, &Unit{
			Path:        path,
			Dir:         dir,
			Fset:        l.fset,
			Files:       all,
			Types:       pkg,
			Info:        info,
			TestUnit:    true,
			reportFiles: reportFiles,
		})
	}
	if len(xtestFiles) > 0 {
		parsed, err := l.parse(xtestFiles)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		pkg, info, err := l.check(path+"_test", parsed)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s [xtests]: %w", path, err)
		}
		reportFiles := make(map[string]bool, len(xtestFiles))
		for _, f := range xtestFiles {
			reportFiles[f] = true
		}
		units = append(units, &Unit{
			Path:        path + "_test",
			Dir:         dir,
			Fset:        l.fset,
			Files:       parsed,
			Types:       pkg,
			Info:        info,
			TestUnit:    true,
			reportFiles: reportFiles,
		})
	}
	return units, nil
}
