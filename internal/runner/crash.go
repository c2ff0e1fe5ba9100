package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"clustersim/internal/pipeline"
)

// This file holds the runner's on-disk crash-safety artifacts. Everything is
// keyed by the request fingerprint rendered as 16 hex digits:
//
//	<CheckpointDir>/<key>.snap          in-flight processor snapshot
//	<CheckpointDir>/results/<key>.json  Result of a completed run
//	failure manifest (caller-chosen path, see SweepError.WriteManifest)
//
// Snapshots are written atomically (tmp + rename) so a crash mid-write leaves
// either the previous snapshot or a stray .tmp, never a torn file; a run
// deletes its snapshot on success. Persisted results outlive the process: a
// resumed sweep preloads them with LoadPersisted and skips those cells.

// keyName renders a request fingerprint as the fixed-width hex token used in
// file names and manifests.
func keyName(key uint64) string { return fmt.Sprintf("%016x", key) }

func (r *Runner) checkpointPath(key uint64) string {
	return filepath.Join(r.CheckpointDir, keyName(key)+".snap")
}

func (r *Runner) resultsDir() string {
	return filepath.Join(r.CheckpointDir, "results")
}

// saveCheckpointFile snapshots p atomically at path.
func saveCheckpointFile(p *pipeline.Processor, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = p.SaveCheckpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err = f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// loadCheckpointFile restores p from the snapshot at path. A missing file is
// not an error (the run simply starts fresh); any read, format or identity
// failure is returned and may leave p half-restored — the caller must rebuild
// the processor before using it.
func loadCheckpointFile(p *pipeline.Processor, path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	return p.LoadCheckpoint(f)
}

// persistResult records a completed run's Result under the checkpoint
// directory. Best-effort: failures are swallowed (the run still succeeded,
// the sweep just loses resumability for this cell).
func (r *Runner) persistResult(key uint64, res pipeline.Result) {
	dir := r.resultsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	path := filepath.Join(dir, keyName(key)+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
	}
}

// LoadPersisted preloads the run cache with every Result persisted under
// CheckpointDir by an earlier process, returning how many were loaded. The
// fingerprint scheme is deterministic across processes, so a resumed sweep's
// requests hit these entries (Stats.PersistServed counts the ones they hit)
// and re-execute only the missing cells. Entries that hold no usable
// Result — names that are not a key, files that cannot be read, JSON that
// does not decode — are skipped, not fatal (a torn write must not block a
// resume), and counted in Stats.PersistSkipped.
func (r *Runner) LoadPersisted() (int, error) {
	if r.CheckpointDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(r.resultsDir())
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	loaded := 0
	for _, e := range entries {
		if r.loadResultFile(e) {
			loaded++
		}
	}
	r.mu.Lock()
	r.stats.PersistSkipped += len(entries) - loaded
	r.mu.Unlock()
	return loaded, nil
}

// loadResultFile preloads the Result persisted in one results/ entry,
// reporting whether the entry held one.
func (r *Runner) loadResultFile(e os.DirEntry) bool {
	hex, ok := strings.CutSuffix(e.Name(), ".json")
	key, err := strconv.ParseUint(hex, 16, 64)
	if e.IsDir() || !ok || len(hex) != 16 || err != nil {
		return false
	}
	data, err := os.ReadFile(filepath.Join(r.resultsDir(), e.Name()))
	if err != nil {
		return false
	}
	var res pipeline.Result
	if json.Unmarshal(data, &res) != nil {
		return false
	}
	r.store(key, res)
	r.mu.Lock()
	r.persisted[key] = true
	r.mu.Unlock()
	return true
}

// Manifest is the JSON document describing a sweep's failures: how many runs
// the sweep had in total and one entry per failed run.
type Manifest struct {
	Total    int        `json:"total"`
	Failures []RunError `json:"failures"`
}

// WriteManifest serializes the sweep's failures to path as indented JSON,
// creating the parent directory if needed.
func (e *SweepError) WriteManifest(path string) error {
	data, err := json.MarshalIndent(Manifest{Total: e.Total, Failures: e.Failures}, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
