package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// openSpans counts the never-ended spans in a profile: the span-leak
// detector.
func openSpans(p *SpanProfile) int {
	n := 0
	p.Walk(func(_ int, sp *SpanProfile) {
		if sp.Open {
			n++
		}
	})
	return n
}

func TestSpanTree(t *testing.T) {
	reg := NewRegistry()
	root := NewRoot("run", reg)
	a := root.Child("load")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := root.Child("eval")
	b.Set("tests", 8)
	b.Add("tests", 2)
	b.Add("ops", 100)
	time.Sleep(time.Millisecond)
	b.EndStage()
	root.End()

	if n := openSpans(root.Profile()); n != 0 {
		t.Errorf("open spans = %d, want 0", n)
	}
	if !root.Ended() || !a.Ended() || !b.Ended() {
		t.Error("spans not ended")
	}
	if root.Duration() < a.Duration() {
		t.Error("root shorter than child")
	}
	if p := root.Profile(); p.Self() > p.Duration() {
		t.Errorf("self %v exceeds total %v", p.Self(), p.Duration())
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "load" || kids[1].Name() != "eval" {
		t.Errorf("children = %v", kids)
	}
	ms := b.Metrics()
	if len(ms) != 2 || ms[0] != (SpanMetric{"tests", 10}) || ms[1] != (SpanMetric{"ops", 100}) {
		t.Errorf("metrics = %v", ms)
	}
	// EndStage must have fed the stage histogram.
	h := reg.Histogram("yardstick_stage_duration_seconds", DefBuckets, "stage", "eval")
	if h.Count() != 1 {
		t.Errorf("stage histogram count = %d, want 1", h.Count())
	}
	// End is idempotent: the frozen duration must not change.
	d := b.Duration()
	b.End()
	if b.Duration() != d {
		t.Error("second End changed the duration")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Error("nil span produced a non-nil child")
	}
	s.End()
	s.EndStage()
	s.Set("a", 1)
	s.Add("a", 1)
	s.Profile().Walk(func(int, *SpanProfile) { t.Error("walk visited a nil span") })
	if s.Ended() || s.Duration() != 0 || s.Profile().Self() != 0 || openSpans(s.Profile()) != 0 {
		t.Error("nil span reported state")
	}
	if s.Name() != "" || s.Registry() != nil || s.Children() != nil || s.Metrics() != nil {
		t.Error("nil span returned data")
	}
}

func TestSpanContext(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Error("empty context yielded a span")
	}
	s := NewSpan("root")
	ctx := ContextWithSpan(context.Background(), s)
	if SpanFromContext(ctx) != s {
		t.Error("span did not round-trip through context")
	}
	// nil spans round-trip too — the disabled path.
	ctx = ContextWithSpan(context.Background(), nil)
	if SpanFromContext(ctx) != nil {
		t.Error("nil span round-trip")
	}
}

// TestSpanConcurrentChildren exercises the fan-out pattern under -race:
// workers create sibling spans and record metrics concurrently.
func TestSpanConcurrentChildren(t *testing.T) {
	root := NewSpan("suite")
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child("shard")
			defer c.End()
			c.Set("tests", int64(i))
			root.Add("total_tests", int64(i))
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != workers {
		t.Errorf("children = %d, want %d", got, workers)
	}
	if n := openSpans(root.Profile()); n != 0 {
		t.Errorf("open spans = %d, want 0", n)
	}
	want := int64(workers * (workers - 1) / 2)
	if ms := root.Metrics(); len(ms) != 1 || ms[0].Value != want {
		t.Errorf("total_tests = %v, want %d", ms, want)
	}
}

func TestWriteFlame(t *testing.T) {
	root := NewSpan("run")
	c := root.Child("eval")
	c.Set("bdd_ops", 42)
	c.End()
	leak := root.Child("open-stage")
	_ = leak // deliberately not ended
	root.End()

	var sb strings.Builder
	WriteFlame(&sb, root)
	out := sb.String()
	for _, want := range []string{"span tree (total ", "run", "eval", "bdd_ops=42", "open-stage", "[open]"} {
		if !strings.Contains(out, want) {
			t.Errorf("flame output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("flame output = %d lines, want 4:\n%s", len(lines), out)
	}
	// Children indent deeper than the root.
	if !strings.HasPrefix(lines[1], "  run") || !strings.HasPrefix(lines[2], "    eval") {
		t.Errorf("indentation wrong:\n%s", out)
	}

	sb.Reset()
	WriteFlame(&sb, nil)
	if got := sb.String(); got != "span tree: (none)\n" {
		t.Errorf("nil flame = %q", got)
	}
}
