// Package specs embeds the nine benchmark specs — the only definition of
// the paper's benchmarks. internal/spec parses them on first use and resolves
// built-in benchmark names against them. The other documents in this
// directory (phase-thrash.json, smt-mix.json, policy/) are examples that
// load from disk, not built-ins.
package specs

import "embed"

// Benchmarks holds <bench>.json for each built-in benchmark.
//
//go:embed cjpeg.json crafty.json djpeg.json galgel.json gzip.json mgrid.json parser.json swim.json vpr.json
var Benchmarks embed.FS
