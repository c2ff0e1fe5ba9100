package spec

import (
	"fmt"
	"io/fs"
	"sort"
	"sync"

	"clustersim/specs"
)

// builtins parses the embedded benchmark specs once, keyed by spec name.
var builtins = sync.OnceValues(func() (map[string]*Spec, error) {
	files, err := fs.Glob(specs.Benchmarks, "*.json")
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	m := make(map[string]*Spec, len(files))
	for _, f := range files {
		data, err := specs.Benchmarks.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		s, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%w (embedded %s)", err, f)
		}
		m[s.Name] = s
	}
	return m, nil
})

// Builtins returns the built-in benchmark names, sorted (none if the
// embedded specs fail to parse; Builtin reports why).
func Builtins() []string {
	m, _ := builtins()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Builtin returns the spec of the named built-in benchmark. The spec is
// shared by every caller and must not be modified.
func Builtin(name string) (*Spec, error) {
	m, err := builtins()
	if err != nil {
		return nil, err
	}
	s, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("spec: unknown benchmark %q (have %v)", name, Builtins())
	}
	return s, nil
}
