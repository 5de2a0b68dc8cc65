package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"yardstick/internal/delta"
	"yardstick/internal/engine"
)

// Registry metric names of the churn path.
const (
	MetricNetworkResets = "yardstick_network_resets_total"
	MetricDeltaApplied  = "yardstick_delta_applied_total"
)

// DeltaReport is the churn-path section of GET /stats: the rules and
// marks applied deltas moved, guarded by Server.mu. How many deltas were
// applied, and how many networks replaced, are the MetricDeltaApplied and
// MetricNetworkResets series.
type DeltaReport struct {
	RulesAdded    int64 `json:"rulesAdded"`
	RulesRemoved  int64 `json:"rulesRemoved"`
	RulesModified int64 `json:"rulesModified"`
	MarksDropped  int64 `json:"marksDropped"`
}

// patchNetwork applies a rule-level delta document (internal/delta) to
// the loaded network in place: only the touched devices' match sets are
// re-derived, the accumulated trace is remapped onto the new rule
// universe (dropped rule marks become reported coverage decay), and the
// response carries per-device coverage drift — all without resetting
// the trace, which is the whole point versus PUT.
//
// Preconditions map to statuses the way a conditional request should:
// no network is 409, a stale base fingerprint is 409 with the current
// fingerprint in the body (re-read, re-diff, retry), a malformed or
// invalid document is 400 with nothing changed, and an aborted
// evaluation (a cancellation) before the commit is 503 with
// nothing changed. A post-commit abort during the drift report returns
// 200 with the delta applied and the drift section absent — state
// changes are never rolled back to beautify a report.
func (s *Server) patchNetwork(w http.ResponseWriter, r *http.Request) {
	var doc delta.Document
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		decodeError(w, "delta", err)
		return
	}
	s.mu.Lock()
	defer s.unlock()
	ctx, cancel := s.evalContext(r)
	defer cancel()
	applied, err := s.eng.Patch(ctx, doc)
	var bm *delta.BaseMismatchError
	switch {
	case applied != nil && err != nil:
		// Applied; only the report is degraded (delta.ErrDriftIncomplete).
		// A success, with the incompleteness surfaced in the log.
		s.logger.Warn("delta applied, drift report incomplete", "err", err)
		applied.Drift = nil
	case errors.Is(err, engine.ErrNoNetwork):
		httpError(w, http.StatusConflict, "%v", err)
		return
	case errors.As(err, &bm):
		fingerprintConflict(w, bm, bm.Current)
		return
	case engine.Aborted(err):
		// Pre-commit abort: the mutation stages everything before
		// publishing, so the network is untouched.
		abortError(w, "delta", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Retained job fragments were recorded against the old rule universe;
	// decoding them now would mis-attribute marks. Drop them — the
	// accumulated trace (already remapped) is the durable state.
	// A pinned entry, its fragment gone, falls under the count bound.
	for id, a := range s.artifacts {
		a.frag = nil
		s.unpinLocked(id, a)
	}
	s.delta.RulesAdded += int64(applied.Added)
	s.delta.RulesRemoved += int64(applied.Removed)
	s.delta.RulesModified += int64(applied.Modified)
	s.delta.MarksDropped += int64(applied.Decay.DroppedMarks)
	s.metrics.Counter(MetricDeltaApplied).Inc()
	writeJSON(w, http.StatusOK, applied)
}
