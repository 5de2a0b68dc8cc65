package service

import (
	"net/http"
	"strconv"
)

// Admission control: the server-side half of the backpressure contract.
// Every rejection is explicit — a 429 or 503 carrying a Retry-After
// hint — never a dropped connection or an unbounded pile-up on the
// evaluation mutex. The client package decodes the hint, and the
// coordinator backs off by it before re-dispatching a shed shard, so a
// saturated fleet backs off at the pace the server asks for instead of
// in blind exponential lockstep.
//
// Three shedding conditions, in the order they are checked:
//
//	draining    the daemon is shutting down; this process will not take
//	            new evaluation work (503, RetryAfterDraining)
//	inflight    the per-route-class concurrency cap (WithAdmission) is
//	            reached; capacity frees on the order of one request
//	            (429, RetryAfterInflight)
//	queue_full  the job queue has no admission headroom; it drains on
//	            the order of queued runs (503, RetryAfterQueueFull —
//	            checked in postJob, where the queue sheds)
//
// Each shed increments yardstick_http_shed_total{route,reason}, the one
// place shed counts are kept.

// Retry-After hints, in seconds, by shedding condition.
const (
	// RetryAfterInflight: a concurrency-shed request can retry as soon
	// as one in-flight evaluation finishes.
	RetryAfterInflight = 1
	// RetryAfterQueueFull: the queue drains a run at a time; back off a
	// little longer.
	RetryAfterQueueFull = 2
	// RetryAfterDraining: this process is going away; give the
	// orchestrator time to route elsewhere.
	RetryAfterDraining = 5
)

// SetDraining flips the server into (or out of) draining mode: heavy
// endpoints shed with 503 + Retry-After and /readyz answers 503 with
// reason "draining", so load balancers stop routing here while
// in-flight work finishes. Turning it on also ends every POST /jobs
// hold at once. The daemon sets this when shutdown begins.
func (s *Server) SetDraining(v bool) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if closed(s.drained) == v {
		return
	}
	if v {
		close(s.drained)
	} else {
		s.drained = make(chan struct{})
	}
}

// drainSignal returns a channel that is closed once draining starts
// (at once when it already has).
func (s *Server) drainSignal() <-chan struct{} {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.drained
}

// isDraining reports whether the server is draining.
func (s *Server) isDraining() bool { return closed(s.drainSignal()) }

// closed reports whether ch is closed, without blocking.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// admit wraps a compute-heavy handler with admission control (see
// acquire); the request holds its admission for the whole handler.
func (s *Server) admit(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.acquire(w, route)
		if !ok {
			return
		}
		defer release()
		h(w, r)
	}
}

// acquire admits one compute-heavy request: draining sheds everything,
// then the WithAdmission concurrency cap (0 = off) sheds requests past
// the limit. A shed request has been answered and ok is false;
// otherwise the caller calls release once its heavy part is over. The
// route label keys the shed metric.
func (s *Server) acquire(w http.ResponseWriter, route string) (release func(), ok bool) {
	if s.isDraining() {
		s.shed(w, route, "draining", http.StatusServiceUnavailable,
			RetryAfterDraining, "server draining, not accepting new work")
		return nil, false
	}
	if s.maxInflight <= 0 {
		return func() {}, true
	}
	if n := s.inflight.Add(1); n > int64(s.maxInflight) {
		s.inflight.Add(-1)
		s.shed(w, route, "inflight", http.StatusTooManyRequests,
			RetryAfterInflight, "concurrency limit reached (%d requests in flight)", s.maxInflight)
		return nil, false
	}
	return func() { s.inflight.Add(-1) }, true
}

// shed answers a load-shedding rejection: the status, a Retry-After
// hint in seconds, and a shed-counter increment keyed by route and
// reason.
func (s *Server) shed(w http.ResponseWriter, route, reason string, code, retryAfter int, format string, args ...any) {
	s.metrics.Counter("yardstick_http_shed_total", "route", route, "reason", reason).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	httpError(w, code, format, args...)
}
