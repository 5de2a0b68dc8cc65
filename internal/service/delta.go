package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"yardstick/internal/bdd"
	"yardstick/internal/delta"
)

// Registry metric names of the churn path.
const (
	MetricNetworkResets = "yardstick_network_resets_total"
	MetricDeltaApplied  = "yardstick_delta_applied_total"
)

// deltaTotals counts churn-path activity; guarded by Server.mu and
// mirrored into the metrics registry at increment time.
type deltaTotals struct {
	applied       int64
	networkResets int64
	rulesAdded    int64
	rulesRemoved  int64
	rulesModified int64
	marksDropped  int64
}

// DeltaReport is the churn-path section of GET /stats.
type DeltaReport struct {
	Applied       int64 `json:"applied"`
	NetworkResets int64 `json:"networkResets"`
	RulesAdded    int64 `json:"rulesAdded"`
	RulesRemoved  int64 `json:"rulesRemoved"`
	RulesModified int64 `json:"rulesModified"`
	MarksDropped  int64 `json:"marksDropped"`
}

func (d *deltaTotals) report() DeltaReport {
	return DeltaReport{
		Applied:       d.applied,
		NetworkResets: d.networkResets,
		RulesAdded:    d.rulesAdded,
		RulesRemoved:  d.rulesRemoved,
		RulesModified: d.rulesModified,
		MarksDropped:  d.marksDropped,
	}
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
// evaluation (budget, cancellation) before the commit is 503 with
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
	defer s.mu.Unlock()
	if s.net == nil {
		httpError(w, http.StatusConflict, "no network loaded")
		return
	}
	ctx, cancel := s.evalContext(r)
	defer cancel()
	defer s.net.Space.WatchContext(ctx)()
	eng := delta.ResumeEngine(s.view, s.fingerprintLocked())
	var (
		applied *delta.Applied
		aerr    error
	)
	gerr := bdd.Guard(func() { applied, aerr = eng.Apply(doc) })
	if gerr != nil {
		// Pre-commit abort: the mutation stages everything before
		// publishing, so the network is untouched.
		abortError(w, "delta", gerr)
		return
	}
	driftIncomplete := false
	if aerr != nil {
		var bm *delta.BaseMismatchError
		switch {
		case errors.As(aerr, &bm):
			fingerprintConflict(w, bm, bm.Current)
			return
		case errors.Is(aerr, delta.ErrDriftIncomplete):
			// Applied; only the report is degraded. Fall through as a
			// success with the incompleteness surfaced in the log.
			driftIncomplete = true
			s.logger.Warn("delta applied, drift report incomplete", "err", aerr)
		default:
			httpError(w, http.StatusBadRequest, "%v", aerr)
			return
		}
	}
	s.netFP = applied.Fingerprint
	// Retained job fragments were recorded against the old rule universe;
	// decoding them now would mis-attribute marks. Drop them — the
	// accumulated trace (already remapped) is the durable state.
	s.jobTraces = map[string]*jobFragment{}
	s.delta.applied++
	s.delta.rulesAdded += int64(applied.Added)
	s.delta.rulesRemoved += int64(applied.Removed)
	s.delta.rulesModified += int64(applied.Modified)
	s.delta.marksDropped += int64(applied.Decay.DroppedMarks)
	s.metrics.Counter(MetricDeltaApplied).Inc()
	// The replicas are clones of the pre-delta network; the next parallel
	// run clones the patched one.
	s.engine = nil
	if driftIncomplete {
		applied.Drift = nil
	}
	writeJSON(w, http.StatusOK, applied)
}
