package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"clustersim/internal/runner"
	"clustersim/internal/spec"
	"clustersim/internal/trace"
	"clustersim/internal/workload"
)

// This file binds declarative-spec and trace-replay workloads into the
// sweep cells Options.request builds. Both are content-addressed: a spec
// run's cache key carries the spec fingerprint, a replayed run's the trace
// file's content fingerprint, so persisted results from internal/runner
// can never be served across workload edits (the fingerprint changes with
// the content, never with the path).

// TraceFileName is the per-workload trace path convention shared by
// RecordTraces and replayed sweeps: <dir>/<bench>-seed<seed>.trace.
func TraceFileName(dir, bench string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace", bench, seed))
}

// TraceCache shares loaded traces across a sweep's cells. Traces are held
// packed (trace.Packed, ~4 bytes per instruction) and replayers over one
// share it, so an N-cell sweep replaying one workload holds one compact
// copy in memory. Safe for concurrent use by the runner's workers: the
// mutex guards only the map, so workers loading different files read in
// parallel while callers of one path wait on a single read.
type TraceCache struct {
	mu sync.Mutex
	m  map[string]*traceLoad
	// read loads one file; tests substitute a counting reader.
	read func(path string) (*trace.Packed, error)
}

// traceLoad is one path's read, shared by every caller that arrives while
// it is in flight or after it succeeded.
type traceLoad struct {
	done chan struct{} // closed when p and err are set
	p    *trace.Packed
	err  error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{m: make(map[string]*traceLoad), read: trace.ReadPackedFile}
}

// load returns the trace at path, reading the file on first use. A failed
// read is not cached: the next call retries it.
func (c *TraceCache) load(path string) (*trace.Packed, error) {
	if c == nil {
		return trace.ReadPackedFile(path)
	}
	c.mu.Lock()
	l, ok := c.m[path]
	if !ok {
		l = &traceLoad{done: make(chan struct{})}
		c.m[path] = l
	}
	c.mu.Unlock()
	if ok {
		<-l.done
		return l.p, l.err
	}
	l.p, l.err = c.read(path)
	if l.err != nil {
		c.mu.Lock()
		delete(c.m, path)
		c.mu.Unlock()
	}
	close(l.done)
	return l.p, l.err
}

// specFor resolves the declarative spec a benchmark name is bound to.
func (o Options) specFor(bench string) (*spec.Spec, bool) {
	s, ok := o.Specs[bench]
	return s, ok
}

// bindWorkload attaches the request's generator source. Replay (the
// recorded stream IS the identity, whatever produced it) takes precedence
// over a spec binding; with neither, the runner builds the built-in
// generator itself.
func (o Options) bindWorkload(req *runner.Request) {
	if o.ReplayTraceDir != "" {
		path := TraceFileName(o.ReplayTraceDir, req.Bench, req.Seed)
		bench, seed, cache := req.Bench, req.Seed, o.TraceCache
		var wantFP uint64
		if s, ok := o.specFor(bench); ok {
			wantFP, _ = s.Fingerprint()
		}
		req.Source = func() (workload.Generator, error) {
			t, err := cache.load(path)
			if err != nil {
				return nil, err
			}
			if err := t.Meta.Verify("", bench, wantFP, seed); err != nil {
				return nil, fmt.Errorf("%w (file %s)", err, path)
			}
			return t.Replayer(), nil
		}
		// The cache key needs the trace's content fingerprint before the
		// run executes; the header peek is a single small read. A missing
		// or unreadable file leaves the source unkeyed, so the request is
		// uncacheable and fails at run time with the real error.
		if h, err := trace.PeekHeader(path); err == nil {
			req.SourceKey = fmt.Sprintf("trace:%016x", h.Fingerprint)
		}
		return
	}
	if s, ok := o.specFor(req.Bench); ok {
		seed := req.Seed
		req.Source = func() (workload.Generator, error) { return spec.Compile(s, seed) }
		if fp, err := s.Fingerprint(); err == nil {
			req.SourceKey = fmt.Sprintf("spec:%016x", fp)
		}
	}
}

// buildGenerator constructs the live generator for a workload name under
// the Options' spec bindings — what a sweep cell would consume without
// replay.
func (o Options) buildGenerator(bench string, seed uint64) (workload.Generator, trace.Meta, error) {
	if s, ok := o.specFor(bench); ok {
		gen, err := spec.Compile(s, seed)
		if err != nil {
			return nil, trace.Meta{}, err
		}
		fp, _ := s.Fingerprint()
		return gen, trace.Meta{
			Name: s.Name, SourceKind: trace.SourceSpec, SourceID: s.Name,
			SourceFP: fp, Seed: seed,
		}, nil
	}
	gen, err := workload.New(bench, seed)
	if err != nil {
		return nil, trace.Meta{}, err
	}
	return gen, trace.Meta{
		Name: bench, SourceKind: trace.SourceBench, SourceID: bench, Seed: seed,
	}, nil
}

// RecordTraces records every workload in o's benchmark set (spec bindings
// included) to dir, each o.Window(bench) + headroom instructions long
// (headroom 0 selects trace.DefaultHeadroom), and returns how many traces
// were written. Each stream is packed as it is generated (trace.RecordFile).
// A directory recorded at some -scale serves any replay at the same or
// smaller scale under every policy: generation is machine-independent, so
// the recorded prefix is exactly what live runs consume.
//
// The benchmarks record concurrently on the sweep pool (o.sweeper()'s
// width). Each compiles its own generator and writes its own file, so the
// files are identical at any width. A failing benchmark does not stop the
// others: the error names every one that failed, in benchmark order, and
// the files of the rest stay written.
func RecordTraces(o Options, dir string, headroom uint64) (int, error) {
	if headroom == 0 {
		headroom = trace.DefaultHeadroom
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("experiments: trace dir: %w", err)
	}
	benches := o.benchmarks()
	errs := make([]error, len(benches))
	var written atomic.Int64
	// Each failure lands in its benchmark's slot, so Each itself fails only
	// when a recording panics.
	panicked := runner.Each(o.sweeper().Workers, len(benches), func(i int) error {
		if err := o.recordTrace(dir, benches[i], headroom); err != nil {
			errs[i] = fmt.Errorf("%s: %w", benches[i], err)
		} else {
			written.Add(1)
		}
		return nil
	})
	return int(written.Load()), errors.Join(append(errs, panicked)...)
}

// recordTrace records one benchmark's stream to its file under dir.
func (o Options) recordTrace(dir, bench string, headroom uint64) error {
	gen, meta, err := o.buildGenerator(bench, o.seed())
	if err != nil {
		return err
	}
	_, err = trace.RecordFile(TraceFileName(dir, bench, o.seed()), gen, o.Window(bench)+headroom, meta)
	return err
}
