// Package obs is Yardstick's instrumentation layer: a dependency-free,
// allocation-conscious metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms) plus lightweight hierarchical spans
// (span.go) that record a run's stage tree.
//
// The design splits responsibilities the way the BDD kernel's own
// counters demand: the hot paths (apply loops, per-test evaluation) keep
// their existing *local, non-atomic* counters, and those are drained
// into the registry only at span boundaries (see hdr.Space.FlushStats).
// The registry's own primitives are atomic so that the places that do
// touch them concurrently — per-worker shard spans, HTTP middleware —
// need no locks on the update path: a Counter.Add is one atomic add, a
// Histogram.Observe is a binary search over an immutable bounds slice
// plus three atomic adds.
//
// Metric handles are interned by (name, labels): the first lookup takes
// the registry mutex and allocates, every later lookup returns the same
// pointer, and steady-state callers cache the handle and never touch
// the registry at all.
package obs

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down (bit-cast through a
// uint64 so loads and stores stay single atomics).
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default latency histogram bounds in seconds,
// spanning sub-millisecond BDD stages to multi-second path walks.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram. Bounds are the inclusive upper
// edges (Prometheus `le` semantics); an implicit +Inf bucket catches the
// tail. Observations are lock-free.
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     Gauge
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v: `le` is an inclusive upper edge, so a value equal
	// to a bound lands in that bound's bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since t, in seconds.
func (h *Histogram) ObserveSince(t time.Time) { h.Observe(time.Since(t).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts, the same linear-interpolation estimate Prometheus's
// histogram_quantile() computes: find the bucket holding the q·count-th
// observation and interpolate within it assuming a uniform spread. An
// estimate in the +Inf bucket clamps to the highest finite bound — the
// histogram cannot say more than "beyond the last edge". Returns 0 when
// empty. The walk reads each bucket once without a lock, so a quantile
// taken under concurrent observation is a near-instant, not exact,
// snapshot — the same contract as a Prometheus scrape.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := uint64(0)
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket: clamp to the last finite edge
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// metric families ------------------------------------------------------

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (name, labels) instantiation of a family.
type series struct {
	key    string            // interning key: renderLabels(labels)
	labels map[string]string // raw label pairs; nil when there are none
	ctr    *Counter
	gge    *Gauge
	hist   *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	typ    metricType
	bounds []float64 // histogram families only
	series map[string]*series
}

// Registry holds named metrics. The zero value is not usable; create
// with NewRegistry. All methods are safe for concurrent use. A nil
// *Registry is a valid no-op sink: every accessor returns a nil metric
// handle whose methods do nothing, so instrumented code never needs to
// branch on "is observability enabled".
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, help: map[string]string{}}
}

// Counter returns (interning on first use) the counter with the given
// name and label pairs. Labels are alternating key, value strings.
// Panics if the name is already registered as a different type.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, typeCounter, nil, labels)
	return s.ctr
}

// Gauge returns the gauge with the given name and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, typeGauge, nil, labels)
	return s.gge
}

// Histogram returns the histogram with the given name and label pairs.
// bounds applies only when the family is created by this call (nil
// selects DefBuckets); later calls reuse the family's bounds so every
// series of one name shares a bucket layout.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, typeHistogram, bounds, labels)
	return s.hist
}

// SetHelp attaches HELP text to a metric name (shown in the Prometheus
// exposition; the name itself is used when unset). Order-independent:
// help set before the metric's first use still applies.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// Help returns a copy of the registered HELP texts by metric name.
func (r *Registry) Help() map[string]string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.help))
	for name, h := range r.help {
		out[name] = h
	}
	return out
}

func (r *Registry) lookup(name string, typ metricType, bounds []float64, labels []string) *series {
	pairs := labelMap(labels)
	key := renderLabels(pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ, series: map[string]*series{}}
		if typ == typeHistogram {
			f.bounds = newHistogram(bounds).bounds
		}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{key: key, labels: pairs}
		switch typ {
		case typeCounter:
			s.ctr = &Counter{}
		case typeGauge:
			s.gge = &Gauge{}
		case typeHistogram:
			s.hist = newHistogram(f.bounds)
		}
		f.series[key] = s
	}
	return s
}

// labelMap turns alternating key/value pairs into a label set (nil for
// none). Panics on an odd-length list or a repeated key (programming
// errors at an instrumentation site).
func labelMap(labels []string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	m := make(map[string]string, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if _, dup := m[labels[i]]; dup {
			panic(fmt.Sprintf("obs: repeated label %q in %q", labels[i], labels))
		}
		m[labels[i]] = labels[i+1]
	}
	return m
}

// Snapshot types -------------------------------------------------------

// Bucket is one cumulative histogram bucket of a snapshot. A snapshot
// carries the finite edges only: the +Inf bucket is the series' Count.
type Bucket struct {
	LE    float64 `json:"le"`    // inclusive upper edge
	Count uint64  `json:"count"` // cumulative count of observations <= LE
}

// Metric is one series of a Snapshot.
type Metric struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"` // raw, unescaped
	// Value carries counter and gauge readings.
	Value float64 `json:"value"`
	// Histogram readings.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns a point-in-time copy of every series, sorted by
// metric name then rendered labels. Concurrent updates during the
// snapshot may be torn *across* series but each primitive value is read
// atomically; once writers are quiescent the snapshot is exact.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	// Series maps only grow; copy the slice views under the lock.
	type famSeries struct {
		f  *family
		ss []*series
	}
	all := make([]famSeries, 0, len(fams))
	for _, f := range fams {
		fs := famSeries{f: f, ss: make([]*series, 0, len(f.series))}
		for _, s := range f.series {
			fs.ss = append(fs.ss, s)
		}
		all = append(all, fs)
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].f.name < all[j].f.name })
	var out []Metric
	for _, fs := range all {
		sort.Slice(fs.ss, func(i, j int) bool { return fs.ss[i].key < fs.ss[j].key })
		for _, s := range fs.ss {
			m := Metric{Name: fs.f.name, Type: fs.f.typ.String(), Labels: maps.Clone(s.labels)}
			switch fs.f.typ {
			case typeCounter:
				m.Value = float64(s.ctr.Value())
			case typeGauge:
				m.Value = s.gge.Value()
			case typeHistogram:
				m.Sum = s.hist.Sum()
				var cum uint64
				for i, le := range s.hist.bounds {
					cum += s.hist.buckets[i].Load()
					m.Buckets = append(m.Buckets, Bucket{LE: le, Count: cum})
				}
				// Count from the same loads, so it never trails a bucket.
				m.Count = cum + s.hist.buckets[len(s.hist.bounds)].Load()
			}
			out = append(out, m)
		}
	}
	return out
}

// ObserveStage records one stage latency into the shared per-stage
// histogram (the `yardstick_stage_duration_seconds` family required by
// the /metrics contract). Nil-safe on the registry.
func ObserveStage(r *Registry, stage string, d time.Duration) {
	r.Histogram("yardstick_stage_duration_seconds", DefBuckets, "stage", stage).Observe(d.Seconds())
}
