package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCrashRecovery exercises the crash-safety workflow end to end, the way
// an operator would hit it: a checkpointed sweep is SIGKILLed mid-flight,
// then rerun with -resume, and the final CSV must be byte-identical to an
// uninterrupted reference invocation.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "experiments")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	base := []string{"-run", "fig3", "-bench", "gzip", "-scale", "0.1",
		"-format", "csv", "-parallel", "2"}
	ckDir := filepath.Join(tmp, "ck")

	ref, err := exec.Command(bin, base...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted run: checkpoint aggressively, SIGKILL while in flight.
	// If the machine is fast enough to finish before the kill lands, the
	// resume below degenerates to an all-cache-hit rerun — still a valid
	// (if weaker) equivalence check, so the test stays timing-tolerant.
	crash := exec.Command(bin, append([]string{"-checkpoint-dir", ckDir,
		"-checkpoint-every", "5000"}, base...)...)
	crash.Stdout, crash.Stderr = nil, nil
	if err := crash.Start(); err != nil {
		t.Fatalf("crash run: %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	crash.Process.Kill()
	crash.Wait()

	resumed, err := exec.Command(bin, append([]string{"-checkpoint-dir", ckDir,
		"-resume"}, base...)...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if string(resumed) != string(ref) {
		t.Fatalf("resumed CSV diverges from uninterrupted reference:\n--- reference ---\n%s--- resumed ---\n%s", ref, resumed)
	}

	// Success must have cleaned up every snapshot and persisted the cells.
	snaps, _ := filepath.Glob(filepath.Join(ckDir, "*.snap"))
	if len(snaps) != 0 {
		t.Errorf("stale snapshots after successful resume: %v", snaps)
	}
	results, _ := os.ReadDir(filepath.Join(ckDir, "results"))
	if len(results) != 4 {
		t.Errorf("persisted %d results, want 4 (one per fig3 cluster count)", len(results))
	}
}

// TestResumeReportsServedEntries: -resume over persisted Results whose keys
// no request of this build has re-simulates every cell, and its report says
// that none of the entries it read served one.
func TestResumeReportsServedEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base := []string{"-run", "fig3", "-bench", "gzip", "-scale", "0.05", "-format", "csv"}
	ckDir := filepath.Join(tmp, "ck")
	ref, err := exec.Command(bin, append([]string{"-checkpoint-dir", ckDir}, base...)...).Output()
	if err != nil {
		t.Fatalf("persisting run: %v", err)
	}

	// Give every persisted Result a key no request has, as a build with
	// other cache keys would have left them.
	results := filepath.Join(ckDir, "results")
	entries, err := os.ReadDir(results)
	if err != nil || len(entries) != 4 {
		t.Fatalf("persisted %d results (err %v), want 4", len(entries), err)
	}
	for _, e := range entries {
		key, err := strconv.ParseUint(strings.TrimSuffix(e.Name(), ".json"), 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		foreign := fmt.Sprintf("%016x.json", ^key)
		if err := os.Rename(filepath.Join(results, e.Name()), filepath.Join(results, foreign)); err != nil {
			t.Fatal(err)
		}
	}

	var stderr bytes.Buffer
	resume := exec.Command(bin, append([]string{"-checkpoint-dir", ckDir, "-resume"}, base...)...)
	resume.Stderr = &stderr
	resumed, err := resume.Output()
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, stderr.String())
	}
	if string(resumed) != string(ref) {
		t.Fatalf("resumed CSV diverges from the reference:\n--- reference ---\n%s--- resumed ---\n%s", ref, resumed)
	}
	for _, want := range []string{"4 simulator runs", "resume: 0 of 4 persisted result(s)"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestResumeRequiresCheckpointDir: -resume without -checkpoint-dir is a usage
// error (exit 2), not a silent fresh start.
func TestResumeRequiresCheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	err := exec.Command(bin, "-resume", "-run", "params").Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit code 2, got %v", err)
	}
}
