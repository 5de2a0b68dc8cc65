package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Job persistence follows the trace-snapshot discipline (internal/core
// snapshot.go): an atomic-rename JSON file stamped with the network
// fingerprint the jobs ran against, discarded wholesale when the
// fingerprint no longer matches. Completed jobs survive a daemon
// restart with their results intact; jobs caught queued or running are
// converted by Restore into failures with an explicit reason, so a
// poller that submitted before the crash gets a diagnosable terminal
// state instead of a 404 or an eternally "queued" ghost.

// ErrMismatch is returned by Load when the records were saved against a
// different network than the provided fingerprint. Callers should
// discard the file and start empty.
var ErrMismatch = errors.New("jobs: snapshot network fingerprint mismatch")

// ErrInterrupted is the reason stamped on restored jobs that were
// queued or running when the daemon stopped.
const ErrInterrupted = "interrupted by daemon restart before completion"

type fileJSON struct {
	Fingerprint string `json:"fingerprint"`
	Jobs        []Job  `json:"jobs"`
}

// storedJob is a Job as Load reads it. Records written while a job could
// ask for its own worker count carry "spec":{"workers":n}; that one key
// is accepted and dropped, and any other unknown key is still an error.
// The tolerance retires with the legacy JSON snapshot reader on or after
// 2027-01-01.
type storedJob struct {
	Job
	Spec struct {
		Spec
		Workers int `json:"workers"`
	} `json:"spec"`
}

// Save atomically writes the job records stamped with the network
// fingerprint: temp file in the target directory, synced, then renamed,
// so after a process crash mid-write or a power loss the path holds the
// previous file or this one, never a short one.
func Save(path, fingerprint string, js []Job) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("jobs: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := json.NewEncoder(tmp)
	if err := enc.Encode(fileJSON{Fingerprint: fingerprint, Jobs: js}); err != nil {
		tmp.Close()
		return fmt.Errorf("jobs: save: %w", err)
	}
	if err := errors.Join(tmp.Sync(), tmp.Close()); err != nil {
		return fmt.Errorf("jobs: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("jobs: save: %w", err)
	}
	return nil
}

// Load reads job records saved against fingerprint. It returns
// fs.ErrNotExist (wrapped) when no file exists and ErrMismatch when the
// records belong to a different network.
func Load(path, fingerprint string) ([]Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var fj struct {
		Fingerprint string      `json:"fingerprint"`
		Jobs        []storedJob `json:"jobs"`
	}
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fj); err != nil {
		return nil, fmt.Errorf("jobs: load: %w", err)
	}
	if fj.Fingerprint != fingerprint {
		return nil, ErrMismatch
	}
	js := make([]Job, len(fj.Jobs))
	for i, sj := range fj.Jobs {
		js[i] = sj.Job
		js[i].Spec = sj.Spec.Spec
	}
	return js, nil
}

// Records snapshots every retained job for persistence, oldest first.
// Call after Wait so running states are settled — records taken while
// the worker is live may still say "running", which Restore converts to a
// failure on the other side.
func (q *Queue) Records() []Job { return q.Jobs() }

// Restore merges previously saved records into the queue: terminal jobs
// are recovered verbatim (a done job's Result is fetchable again), jobs
// that were queued or running at shutdown become failed with
// ErrInterrupted as the reason. IDs already present are skipped — the
// live queue's view wins. It returns how many jobs were recovered and
// how many of those were converted to failures.
func (q *Queue) Restore(js []Job) (recovered, interrupted int) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, rec := range js {
		if rec.ID == "" {
			continue
		}
		if _, exists := q.jobs[rec.ID]; exists {
			continue
		}
		if !rec.State.Terminal() {
			rec.State = StateFailed
			rec.Error = ErrInterrupted
			rec.Result = nil
			interrupted++
		}
		if rec.Finished.IsZero() {
			rec.Finished = now // start the TTL clock for swept-in records
		}
		q.jobs[rec.ID] = &job{Job: rec, finished: closedChan}
		recovered++
	}
	return recovered, interrupted
}
