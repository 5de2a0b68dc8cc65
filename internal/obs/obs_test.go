package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram from many goroutines (the -race build is the point) and
// asserts the quiescent snapshot is exact.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("ops_total", "worker", "shared")
			g := reg.Gauge("last_seen")
			h := reg.Histogram("latency_seconds", nil)
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%100) / 1000.0)
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("ops_total", "worker", "shared").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	h := reg.Histogram("latency_seconds", nil)
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	// Bucket counts must sum to the observation count.
	var m Metric
	for _, s := range reg.Snapshot() {
		if s.Name == "latency_seconds" {
			m = s
		}
	}
	if len(m.Buckets) == 0 {
		t.Fatal("histogram missing from snapshot")
	}
	// Every observation is under the last finite edge, which therefore
	// holds them all; the +Inf bucket is Count itself.
	last := m.Buckets[len(m.Buckets)-1]
	if math.IsInf(last.LE, 1) {
		t.Errorf("snapshot carries a +Inf bucket: %v", m.Buckets)
	}
	if last.Count != m.Count || m.Count != workers*per {
		t.Errorf("last bucket = %d, count = %d, want %d each", last.Count, m.Count, workers*per)
	}
	for i := 1; i < len(m.Buckets); i++ {
		if m.Buckets[i].Count < m.Buckets[i-1].Count {
			t.Errorf("bucket %d not cumulative: %d < %d", i, m.Buckets[i].Count, m.Buckets[i-1].Count)
		}
	}
}

// TestHandleInterning: same (name, labels) yields the same metric; label
// order does not matter; different labels yield distinct series.
func TestHandleInterning(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("reqs", "route", "/run", "method", "POST")
	b := reg.Counter("reqs", "method", "POST", "route", "/run")
	if a != b {
		t.Error("label order created a distinct series")
	}
	c := reg.Counter("reqs", "route", "/coverage", "method", "GET")
	if a == c {
		t.Error("distinct labels shared a series")
	}
	a.Add(2)
	c.Inc()
	if a.Value() != 2 || c.Value() != 1 {
		t.Errorf("values = %d, %d, want 2, 1", a.Value(), c.Value())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter name did not panic")
		}
	}()
	reg.Gauge("x")
}

// TestHistogramEdges: le is an inclusive upper bound.
func TestHistogramEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2})
	h.Observe(1)   // lands in le=1
	h.Observe(1.5) // le=2
	h.Observe(2)   // le=2
	h.Observe(3)   // +Inf
	var m Metric
	for _, s := range reg.Snapshot() {
		if s.Name == "h" {
			m = s
		}
	}
	want := []Bucket{{1, 1}, {2, 3}} // cumulative; the +Inf bucket is Count
	if !reflect.DeepEqual(m.Buckets, want) || m.Count != 4 {
		t.Errorf("buckets = %v, count = %d, want %v and 4", m.Buckets, m.Count, want)
	}
	if m.Sum != 7.5 {
		t.Errorf("sum = %v, want 7.5", m.Sum)
	}
}

// TestNilRegistry: a nil registry hands out working no-op metrics.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	reg.Counter("a", "k", "v").Inc()
	reg.Gauge("b").Set(1)
	reg.Histogram("c", nil).Observe(1)
	ObserveStage(reg, "x", time.Second)
	if got := reg.Snapshot(); got != nil {
		t.Errorf("nil registry snapshot = %v, want nil", got)
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry write: %v", err)
	}
}

// TestOddLabelsPanic: a label list that is not a set of key/value pairs
// (odd length, or a key given twice) is a programming error.
func TestOddLabelsPanic(t *testing.T) {
	for _, labels := range [][]string{{"only-key"}, {"k", "a", "k", "b"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label list %q did not panic", labels)
				}
			}()
			NewRegistry().Counter("x", labels...)
		}()
	}
}
