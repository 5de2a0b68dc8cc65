package sharded

// Chaos acceptance tests for the degradation model across shards, run
// under -race in CI: hostile tests on one worker must not poison
// siblings, and cancellation must yield a partial merged trace.

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/faults"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

func fatTreeBuilder() (*netmodel.Network, error) {
	ft, err := topogen.BuildFatTree(2)
	if err != nil {
		return nil, err
	}
	return ft.Net, nil
}

// markerTest marks a distinctive packet set at a fixed location and
// reports (via the done channel and counter) that it ran, failing with
// fail when it is set.
type markerTest struct {
	name   string
	prefix netip.Prefix
	done   chan<- struct{}
	ran    *atomic.Int32
	fail   string
}

func (t markerTest) Name() string       { return t.name }
func (t markerTest) Kind() testkit.Kind { return testkit.StateInspection }

func (t markerTest) Run(net *netmodel.Network, tracker core.Tracker) testkit.Result {
	tracker.MarkPacket(dataplane.Injected(0), net.Space.DstPrefix(t.prefix))
	if t.ran != nil {
		t.ran.Add(1)
	}
	if t.done != nil {
		t.done <- struct{}{}
	}
	res := testkit.Result{Name: t.name, Kind: t.Kind(), Checks: 1}
	if t.fail != "" {
		res.Failures = []testkit.Failure{{Device: 0, Detail: t.fail}}
	}
	return res
}

// signalledHang is faults.HangTest that reports on started once it
// runs, so a test can cancel while it hangs rather than before it
// starts.
type signalledHang struct {
	faults.HangTest
	started chan<- struct{}
}

func (t signalledHang) RunContext(ctx context.Context, net *netmodel.Network, tracker core.Tracker) testkit.Result {
	t.started <- struct{}{}
	return t.HangTest.RunContext(ctx, net, tracker)
}

// splitTest is a splittable test scripted part by part: beside another
// splittable test, a pool of len(parts) workers runs part k on shard k.
// Scripts always give it a partner, so Run, the lone case, panics.
type splitTest struct {
	name  string
	parts []testkit.Test
}

func (t splitTest) Name() string       { return t.name }
func (t splitTest) Kind() testkit.Kind { return testkit.E2ESymbolic }

func (splitTest) Run(*netmodel.Network, core.Tracker) testkit.Result {
	panic("splitTest runs only as parts")
}

func (t splitTest) Split(n int) []testkit.Test {
	if n != len(t.parts) {
		panic(fmt.Sprintf("splitTest %s has %d parts, asked for %d", t.name, len(t.parts), n))
	}
	return t.parts
}

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPanicOnOneWorkerDoesNotPoisonSiblings(t *testing.T) {
	ctx := context.Background()
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}
	// Three workers: the panicking test lands alone on worker 0; the
	// sibling shards carry real marker tests that must complete and
	// contribute coverage.
	suite := testkit.Suite{
		faults.PanicTest{Message: "chaos: shard down"},
		markerTest{name: "m1", prefix: mustPrefix(t, "10.1.0.0/16")},
		markerTest{name: "m2", prefix: mustPrefix(t, "10.2.0.0/16")},
		markerTest{name: "m3", prefix: mustPrefix(t, "10.3.0.0/16")},
		markerTest{name: "m4", prefix: mustPrefix(t, "10.4.0.0/16")},
		markerTest{name: "m5", prefix: mustPrefix(t, "10.5.0.0/16")},
	}
	eng, err := New(ctx, canonical, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, suite)
	if err != nil {
		t.Fatalf("a panicking test must not fail the run: %v", err)
	}
	if len(res.Results) != len(suite) {
		t.Fatalf("%d results, want %d", len(res.Results), len(suite))
	}
	if !res.Results[0].Errored() {
		t.Errorf("panicking test: status %s, want error", res.Results[0].Status())
	}
	for i := 1; i < len(res.Results); i++ {
		if !res.Results[i].Pass() {
			t.Errorf("sibling test %s: status %s, want pass", res.Results[i].Name, res.Results[i].Status())
		}
	}
	// Every sibling's mark survived the merge.
	sp := canonical.Space
	got := res.Trace.PacketsAt(sp, dataplane.Injected(0))
	want := sp.DstPrefix(mustPrefix(t, "10.1.0.0/16")).
		Union(sp.DstPrefix(mustPrefix(t, "10.2.0.0/16"))).
		Union(sp.DstPrefix(mustPrefix(t, "10.3.0.0/16"))).
		Union(sp.DstPrefix(mustPrefix(t, "10.4.0.0/16"))).
		Union(sp.DstPrefix(mustPrefix(t, "10.5.0.0/16")))
	if !got.Equal(want) {
		t.Error("merged trace is missing sibling marks")
	}
}

func TestCancellationReturnsPartialMergedTrace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}

	// Round-robin over 2 workers:
	//   worker 0: fastA, hang, never
	//   worker 1: fastB, fastC
	// The fast tests signal completion and the hang signals that it is
	// hanging; once all four have, we cancel. The hang unblocks with an
	// errored result, and "never" — behind the hang on worker 0 — must be
	// skipped by the suite's ctx check.
	done := make(chan struct{}, 4)
	var neverRan atomic.Int32
	suite := testkit.Suite{
		markerTest{name: "fastA", prefix: mustPrefix(t, "10.1.0.0/16"), done: done},
		markerTest{name: "fastB", prefix: mustPrefix(t, "10.2.0.0/16"), done: done},
		signalledHang{started: done},
		markerTest{name: "fastC", prefix: mustPrefix(t, "10.3.0.0/16"), done: done},
		markerTest{name: "never", prefix: mustPrefix(t, "10.4.0.0/16"), ran: &neverRan},
	}
	go func() {
		for i := 0; i < 4; i++ {
			<-done
		}
		cancel()
	}()

	start := time.Now()
	eng, err := New(ctx, canonical, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, suite)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("cancellation did not unblock the hung worker promptly")
	}
	if neverRan.Load() != 0 {
		t.Error("test queued behind the hang ran despite cancellation")
	}

	// Partial results: the fast tests and the aborted hang, in suite
	// order, without the skipped tail.
	byName := map[string]testkit.Result{}
	for _, r := range res.Results {
		byName[r.Name] = r
	}
	for _, name := range []string{"fastA", "fastB", "fastC"} {
		if r, ok := byName[name]; !ok || !r.Pass() {
			t.Errorf("fast test %s missing or not passing in partial results", name)
		}
	}
	if r, ok := byName["ChaosHang"]; !ok || !r.Errored() {
		t.Error("hung test should appear as errored in partial results")
	}
	if _, ok := byName["never"]; ok {
		t.Error("skipped test should not appear in partial results")
	}

	// The partial merged trace carries every completed test's marks.
	sp := canonical.Space
	got := res.Trace.PacketsAt(sp, dataplane.Injected(0))
	want := sp.DstPrefix(mustPrefix(t, "10.1.0.0/16")).
		Union(sp.DstPrefix(mustPrefix(t, "10.2.0.0/16"))).
		Union(sp.DstPrefix(mustPrefix(t, "10.3.0.0/16")))
	if !got.Equal(want) {
		t.Error("partial merged trace does not match the completed tests' marks")
	}
}

// TestPanicInOnePartErrorsItsTest: a part that panics errors its split
// test, whose sibling parts still fold their checks and failures in
// part order and merge their marks; the whole tests and the other split
// test beside it pass.
func TestPanicInOnePartErrorsItsTest(t *testing.T) {
	ctx := context.Background()
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}
	suite := testkit.Suite{
		markerTest{name: "m1", prefix: mustPrefix(t, "10.1.0.0/16")},
		splitTest{name: "split", parts: []testkit.Test{
			markerTest{name: "split", prefix: mustPrefix(t, "10.2.0.0/16"), fail: "part 0"},
			faults.PanicTest{Message: "chaos: part down"},
			markerTest{name: "split", prefix: mustPrefix(t, "10.3.0.0/16"), fail: "part 2"},
		}},
		markerTest{name: "m2", prefix: mustPrefix(t, "10.4.0.0/16")},
		splitTest{name: "partner", parts: []testkit.Test{
			markerTest{name: "partner", prefix: mustPrefix(t, "10.5.0.0/16")},
			markerTest{name: "partner", prefix: mustPrefix(t, "10.6.0.0/16")},
			markerTest{name: "partner", prefix: mustPrefix(t, "10.7.0.0/16")},
		}},
	}
	eng, err := New(ctx, canonical, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, suite)
	if err != nil {
		t.Fatalf("a panicking part must not fail the run: %v", err)
	}
	if len(res.Results) != len(suite) {
		t.Fatalf("%d results, want %d", len(res.Results), len(suite))
	}
	split := res.Results[1]
	if split.Name != "split" || split.Err != "panic: chaos: part down" || split.Checks != 2 ||
		len(split.Failures) != 2 || split.Failures[0].Detail != "part 0" || split.Failures[1].Detail != "part 2" {
		t.Errorf("split test folded to %+v, want the panic's error, 2 checks and both parts' failures in part order", split)
	}
	for _, i := range []int{0, 2, 3} {
		if !res.Results[i].Pass() {
			t.Errorf("test %s: status %s, want pass", res.Results[i].Name, res.Results[i].Status())
		}
	}
	if res.Results[3].Checks != 3 {
		t.Errorf("partner folded %d checks, want 3", res.Results[3].Checks)
	}
	sp := canonical.Space
	want := sp.Empty()
	for _, p := range []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16", "10.5.0.0/16", "10.6.0.0/16", "10.7.0.0/16"} {
		want = want.Union(sp.DstPrefix(mustPrefix(t, p)))
	}
	if !res.Trace.PacketsAt(sp, dataplane.Injected(0)).Equal(want) {
		t.Error("merged trace is missing the marks of the panicking part's siblings")
	}
}

// TestCancellationMidPart: a run cancelled while a part hangs reports
// that part's split test as errored, since every part produced a
// Result, and leaves out a split test whose last part never ran, though
// its first part's marks are in the partial merged trace.
func TestCancellationMidPart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}
	// Two workers:
	//   worker 0: hangs part 0, never part 0
	//   worker 1: hangs part 1, never part 1
	// Both parts on worker 0 signal completion and hangs part 1 signals
	// that it is hanging; then we cancel. hangs part 1 unblocks with an
	// errored result, and never part 1, behind it, is skipped by the
	// suite's ctx check.
	done := make(chan struct{}, 3)
	var neverRan atomic.Int32
	suite := testkit.Suite{
		splitTest{name: "hangs", parts: []testkit.Test{
			markerTest{name: "hangs", prefix: mustPrefix(t, "10.1.0.0/16"), done: done},
			signalledHang{started: done},
		}},
		splitTest{name: "never", parts: []testkit.Test{
			markerTest{name: "never", prefix: mustPrefix(t, "10.2.0.0/16"), done: done},
			markerTest{name: "never", prefix: mustPrefix(t, "10.3.0.0/16"), ran: &neverRan},
		}},
	}
	go func() {
		for range 3 {
			<-done
		}
		cancel()
	}()
	eng, err := New(ctx, canonical, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, suite)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if neverRan.Load() != 0 {
		t.Error("a part queued behind the hang ran despite cancellation")
	}
	if len(res.Results) != 1 {
		t.Fatalf("results %+v, want only the test whose parts all ran", res.Results)
	}
	if r := res.Results[0]; r.Name != "hangs" || !r.Errored() || r.Checks != 1 {
		t.Errorf("hanging test folded to %+v, want errored with its first part's check", r)
	}
	if s := res.Shards[1]; s.Tests != 2 || s.Completed != 1 {
		t.Errorf("worker 1 completed %d of %d tests, want 1 of 2", s.Completed, s.Tests)
	}
	sp := canonical.Space
	want := sp.DstPrefix(mustPrefix(t, "10.1.0.0/16")).Union(sp.DstPrefix(mustPrefix(t, "10.2.0.0/16")))
	if !res.Trace.PacketsAt(sp, dataplane.Injected(0)).Equal(want) {
		t.Error("partial merged trace does not match the completed parts' marks")
	}
}
