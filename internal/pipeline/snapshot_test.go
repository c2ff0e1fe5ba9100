package pipeline_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"clustersim/internal/core"
	"clustersim/internal/obs"
	"clustersim/internal/pipeline"
	"clustersim/internal/workload"
)

// buildFor constructs a fresh processor for (bench, seed, cfg, ctrl-factory):
// resume equivalence is about restoring into a *newly constructed* machine,
// exactly what a restarted process would do.
func buildFor(t testing.TB, bench string, seed uint64, cfg pipeline.Config, mkCtrl func() pipeline.Controller) *pipeline.Processor {
	t.Helper()
	gen, err := workload.New(bench, seed)
	if err != nil {
		t.Fatal(err)
	}
	var ctrl pipeline.Controller
	if mkCtrl != nil {
		ctrl = mkCtrl()
	}
	p, err := pipeline.New(cfg, gen, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOK(t testing.TB, p *pipeline.Processor, n uint64) pipeline.Result {
	t.Helper()
	res, err := p.Run(n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestSnapshotResumeEquivalence: checkpointing mid-run and restoring into a
// fresh machine must reproduce the uninterrupted run's Result byte for byte,
// and a second snapshot taken at the same point must be byte-identical
// (snapshots are deterministic, so retries overwrite idempotently).
func TestSnapshotResumeEquivalence(t *testing.T) {
	const window, at = 40_000, 17_000
	cfg := pipeline.DefaultConfig()

	whole := runOK(t, buildFor(t, "gzip", 1, cfg, nil), window)

	half := buildFor(t, "gzip", 1, cfg, nil)
	runOK(t, half, at)
	var buf, buf2 bytes.Buffer
	if err := half.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := half.SaveCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two snapshots of the same state differ")
	}

	resumed := buildFor(t, "gzip", 1, cfg, nil)
	if err := resumed.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Committed(), half.Committed(); got != want {
		t.Fatalf("restored committed %d, want %d", got, want)
	}
	final := runOK(t, resumed, window-resumed.Committed())
	if final != whole {
		t.Fatalf("resumed run diverges from uninterrupted run:\n  whole:   %+v\n  resumed: %+v", whole, final)
	}
}

// TestSnapshotResumeEquivalenceVariants covers the non-default machine
// shapes a sweep actually visits: decentralized cache, grid topology, and
// dynamic controllers with live measurement state.
func TestSnapshotResumeEquivalenceVariants(t *testing.T) {
	variants := []struct {
		name string
		cfg  func() pipeline.Config
		ctrl func() pipeline.Controller
	}{
		{"dist-cache", func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Cache = pipeline.DecentralizedCache
			return c
		}, nil},
		{"grid", func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Topology = pipeline.GridTopology
			return c
		}, nil},
		{"explore", pipeline.DefaultConfig, func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }},
		{"distant-ilp", pipeline.DefaultConfig, func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{}) }},
		{"finegrain", pipeline.DefaultConfig, func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			const window, at = 30_000, 13_000
			cfg := v.cfg()
			whole := runOK(t, buildFor(t, "vpr", 2, cfg, v.ctrl), window)
			half := buildFor(t, "vpr", 2, cfg, v.ctrl)
			runOK(t, half, at)
			var buf bytes.Buffer
			if err := half.SaveCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			resumed := buildFor(t, "vpr", 2, cfg, v.ctrl)
			if err := resumed.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			final := runOK(t, resumed, window-resumed.Committed())
			if final != whole {
				t.Fatalf("resumed run diverges:\n  whole:   %+v\n  resumed: %+v", whole, final)
			}
		})
	}
}

// TestSnapshotResumeEquivalenceShapes restores the machine shapes the
// tests above leave out: the decentralized cache under each dynamic
// controller family (drain, flush, active banks and the bank predictor in
// flight), and the criticality table on a static and a dynamic machine.
// Each run is checkpointed at four interior points, and every snapshot
// resumes in a fresh machine that must finish with the uninterrupted run's
// Result.
func TestSnapshotResumeEquivalenceShapes(t *testing.T) {
	const window = 60_000
	shapes := []snapMachine{
		{"dist-explore", distCache, explore},
		{"dist-dilp-1k", distCache, dilp1K},
		{"dist-fine-grain", distCache, fineGrain},
		{"crit-static", critTable, nil},
		{"crit-explore", critTable, explore},
	}
	for _, bench := range []string{"gzip", "parser", "swim", "galgel", "cjpeg"} {
		for _, m := range shapes {
			bench, m := bench, m
			t.Run(bench+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				cfg := m.cfg()
				whole := runOK(t, buildFor(t, bench, 1, cfg, m.ctrl), window)
				half := buildFor(t, bench, 1, cfg, m.ctrl)
				for _, at := range []uint64{9_000, 23_000, 37_000, 51_000} {
					runOK(t, half, at-half.Committed())
					var buf bytes.Buffer
					if err := half.SaveCheckpoint(&buf); err != nil {
						t.Fatal(err)
					}
					resumed := buildFor(t, bench, 1, cfg, m.ctrl)
					if err := resumed.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
						t.Fatalf("load at %d: %v", at, err)
					}
					if got := runOK(t, resumed, window-resumed.Committed()); got != whole {
						t.Fatalf("resumed at %d diverges:\n  whole:   %+v\n  resumed: %+v", at, whole, got)
					}
				}
			})
		}
	}
}

// TestSnapshotIdentityChecks: a snapshot must refuse to restore into a
// machine built from a different configuration, benchmark or policy, and
// must reject corrupt or truncated bytes with an error, never a panic.
func TestSnapshotIdentityChecks(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	p := buildFor(t, "gzip", 1, cfg, nil)
	runOK(t, p, 5_000)
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	hop2 := cfg
	hop2.HopLatency = 2
	cases := []struct {
		name string
		dst  *pipeline.Processor
		want string
	}{
		{"config", buildFor(t, "gzip", 1, hop2, nil), "configuration"},
		{"bench", buildFor(t, "swim", 1, cfg, nil), "benchmark"},
		{"policy", buildFor(t, "gzip", 1, cfg, func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }), "policy"},
	}
	for _, c := range cases {
		err := c.dst.LoadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s mismatch: got %v, want mention of %q", c.name, err, c.want)
		}
	}

	// Corrupt magic.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[8] ^= 0xff
	if err := buildFor(t, "gzip", 1, cfg, nil).LoadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt magic accepted")
	}

	// Truncations anywhere must error, never panic.
	for _, cut := range []int{0, 1, 16, 64, buf.Len() / 2, buf.Len() - 1} {
		if err := buildFor(t, "gzip", 1, cfg, nil).LoadCheckpoint(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// sectionStart returns the offset just past the named section marker in a
// snapshot: the marker tag, then the name as a length-prefixed string.
func sectionStart(t *testing.T, data []byte, name string) int {
	t.Helper()
	mark := binary.LittleEndian.AppendUint64(nil, 0x4b52414d)
	mark = binary.LittleEndian.AppendUint64(mark, uint64(len(name)))
	mark = append(mark, name...)
	i := bytes.Index(data, mark)
	if i < 0 {
		t.Fatalf("no %q section in the snapshot", name)
	}
	return i + len(mark)
}

// TestSnapshotRejectsCorruptIndices: a word the stages use to index
// per-cluster state — a ROB entry's cluster or its active count at
// dispatch, the pending reconfiguration target, the mod-N steering cursor —
// fails the load when it lies outside the machine, instead of loading
// cleanly and panicking on the next Run.
func TestSnapshotRejectsCorruptIndices(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	p := buildFor(t, "gzip", 1, cfg, nil)
	runOK(t, p, 20_000)
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Offsets within a section: the first ROB entry is its instruction
	// (51 bytes) and seq, then the cluster word; six flag bytes, five cycle
	// words and the predicted home follow before the active count.
	const robCluster, robActive = 59, 59 + 8 + 6 + 5*8 + 8
	const procPending, procModN = 7*8 + 1, 7*8 + 1 + 4*8
	cases := []struct {
		name, section string
		off           int
		word          uint64
		want          string
	}{
		{"rob cluster", "rob", robCluster, 99, "names cluster 99 of 16"},
		{"rob active at dispatch", "rob", robActive, 0, "dispatched under 0 active clusters"},
		{"pending active", "proc", procPending, 17, "pending active clusters 17"},
		{"mod-N cluster", "proc", procModN, 16, "mod-N cluster 16"},
	}
	for _, c := range cases {
		bad := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(bad[sectionStart(t, bad, c.section)+c.off:], c.word)
		err := buildFor(t, "gzip", 1, cfg, nil).LoadCheckpoint(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestCheckpointableGate: instrumented runs (observer or checker attached)
// are rejected up front, not mid-snapshot.
func TestCheckpointableGate(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.Observer = &obs.Observer{Registry: obs.NewRegistry()}
	p := buildFor(t, "gzip", 1, cfg, nil)
	if err := p.Checkpointable(); err == nil {
		t.Fatal("observer-attached run reported checkpointable")
	}
	var buf bytes.Buffer
	if err := p.SaveCheckpoint(&buf); err == nil {
		t.Fatal("SaveCheckpoint succeeded with observer attached")
	}

	plain := buildFor(t, "gzip", 1, pipeline.DefaultConfig(), nil)
	if err := plain.Checkpointable(); err != nil {
		t.Fatalf("plain run not checkpointable: %v", err)
	}
}

// TestWatchdogDeadlockError: the forward-progress watchdog surfaces as a
// typed *DeadlockError carrying the machine's position — not a panic. An
// absurdly small budget triggers it during pipeline fill, when nothing has
// committed yet.
func TestWatchdogDeadlockError(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.WatchdogCycles = 1
	p := buildFor(t, "gzip", 1, cfg, nil)
	_, err := p.Run(1_000)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	var de *pipeline.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if de.Cycle == 0 || de.Committed != 0 {
		t.Fatalf("dump not populated: %+v", de)
	}
	if !strings.Contains(de.Error(), "no commit in") {
		t.Fatalf("unhelpful message: %v", de)
	}
}

// TestStopFlag: a raised stop flag surfaces as *StoppedError at the next
// poll point, leaving the machine in a consistent, resumable state.
func TestStopFlag(t *testing.T) {
	p := buildFor(t, "gzip", 1, pipeline.DefaultConfig(), nil)
	var stop atomic.Bool
	p.SetStopFlag(&stop)
	stop.Store(true)
	_, err := p.Run(1_000_000)
	var se *pipeline.StoppedError
	if !errors.As(err, &se) {
		t.Fatalf("want *StoppedError, got %T: %v", err, err)
	}
	// The stopped machine is still usable: clear the flag and finish.
	stop.Store(false)
	if _, err := p.Run(10_000 - p.Committed()); err != nil {
		t.Fatalf("run after stop: %v", err)
	}
}

// BenchmarkCheckpoint times one snapshot of gzip under explore at 50K
// instructions (about 2 MB, mostly the link and bank calendars and the L2
// arrays): save writes it to a file, load restores it from memory into a
// fresh processor, whose construction is not timed.
func BenchmarkCheckpoint(b *testing.B) {
	explore := func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) }
	p := buildFor(b, "gzip", 1, pipeline.DefaultConfig(), explore)
	runOK(b, p, 50_000)
	var snap bytes.Buffer
	if err := p.SaveCheckpoint(&snap); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		f, err := os.Create(filepath.Join(b.TempDir(), "gzip.snap"))
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		b.SetBytes(int64(snap.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := f.Seek(0, 0); err != nil {
				b.Fatal(err)
			}
			if err := p.SaveCheckpoint(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(snap.Len()))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			q := buildFor(b, "gzip", 1, pipeline.DefaultConfig(), explore)
			b.StartTimer()
			if err := q.LoadCheckpoint(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
