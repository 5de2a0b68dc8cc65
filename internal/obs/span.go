// Hierarchical spans: the stage tree of one run.
//
// A Span measures one stage (load network, compute match sets, one
// shard's suite evaluation, trace merge, …). Spans nest: children are
// created with Child — concurrently when stages fan out across workers
// — and each span carries named integer metrics, the per-span counter
// deltas drained from the BDD engine's local stats at span boundaries.
//
// Every method is nil-receiver safe, so uninstrumented call paths
// (a nil span threaded through a context) cost a pointer test and
// nothing else. This is what keeps instrumentation overhead within the
// benchmark budget: when nobody asked for a profile, no span exists and
// no time.Now fires in the sharded engine or the suite runner.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanMetric is one named counter delta recorded on a span.
type SpanMetric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// SpanTag is one named string annotation on a span — identity that
// numbers cannot carry (a run ID, a node URL, a suite name). Tags are
// what link a worker's exported span profile back to the distributed
// run that dispatched it.
type SpanTag struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Span is one timed stage of a run. Create roots with NewRoot (or
// NewSpan), children with Child, and finish with End. A Span is safe
// for concurrent use: workers may create sibling children and record
// metrics concurrently.
type Span struct {
	name  string
	reg   *Registry // inherited by children; may be nil
	start time.Time
	durNs atomic.Int64 // -1 while open, elapsed nanoseconds once ended

	mu       sync.Mutex
	children []*Span
	metrics  []SpanMetric
	tags     []SpanTag
}

// NewSpan starts a root span with no registry attached.
func NewSpan(name string) *Span { return NewRoot(name, nil) }

// NewRoot starts a root span whose descendants share reg (retrievable
// with Registry; nil is fine and disables registry-side recording).
func NewRoot(name string, reg *Registry) *Span {
	s := &Span{name: name, reg: reg, start: time.Now()}
	s.durNs.Store(-1)
	return s
}

// Child starts a sub-span. Safe to call from multiple goroutines on the
// same parent; returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, reg: s.reg, start: time.Now()}
	c.durNs.Store(-1)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End freezes the span's duration. Idempotent: the first End wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start).Nanoseconds()
	if d < 0 {
		d = 0
	}
	s.durNs.CompareAndSwap(-1, d)
}

// EndStage ends the span and records its duration into the shared
// per-stage latency histogram of the attached registry (no-op without
// one). Use for the named pipeline stages whose latencies /metrics
// promises.
func (s *Span) EndStage() {
	if s == nil {
		return
	}
	s.End()
	if s.reg != nil {
		ObserveStage(s.reg, s.name, s.Duration())
	}
}

// Ended reports whether End has run.
func (s *Span) Ended() bool { return s != nil && s.durNs.Load() >= 0 }

// Name returns the span's stage name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Registry returns the registry attached at the root (nil-safe).
func (s *Span) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Duration returns the frozen duration of an ended span, or the
// still-running elapsed time of an open one.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if d := s.durNs.Load(); d >= 0 {
		return time.Duration(d)
	}
	return time.Since(s.start)
}

// Children returns a copy of the child list in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Set records (or replaces) a named metric on the span.
func (s *Span) Set(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.metrics {
		if s.metrics[i].Name == name {
			s.metrics[i].Value = v
			return
		}
	}
	s.metrics = append(s.metrics, SpanMetric{name, v})
}

// Add adds v to a named metric, creating it at v.
func (s *Span) Add(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.metrics {
		if s.metrics[i].Name == name {
			s.metrics[i].Value += v
			return
		}
	}
	s.metrics = append(s.metrics, SpanMetric{name, v})
}

// SetTag records (or replaces) a named string annotation on the span.
func (s *Span) SetTag(name, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.tags {
		if s.tags[i].Name == name {
			s.tags[i].Value = value
			return
		}
	}
	s.tags = append(s.tags, SpanTag{name, value})
}

// Tags returns a copy of the span's tags in recording order.
func (s *Span) Tags() []SpanTag {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanTag, len(s.tags))
	copy(out, s.tags)
	return out
}

// Metrics returns a copy of the span's metrics in recording order.
func (s *Span) Metrics() []SpanMetric {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanMetric, len(s.metrics))
	copy(out, s.metrics)
	return out
}

// Context plumbing -----------------------------------------------------

type spanCtxKey struct{}

// ContextWithSpan attaches s to ctx; downstream stages (the sharded
// engine's workers, suite runners) pick it up with SpanFromContext and
// hang their sub-spans beneath it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span attached to ctx, or nil — and nil is
// a fully working no-op span, so callers chain without checking.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
