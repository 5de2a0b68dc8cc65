package sharded

// Chaos acceptance tests for the degradation model across shards, run
// under -race in CI: hostile tests on one worker must not poison
// siblings, cancellation must yield a partial merged trace, and a budget
// trip on any shard must fail the run deterministically.

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"yardstick/internal/bdd"
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
// reports (via the done channel and counter) that it ran.
type markerTest struct {
	name   string
	prefix netip.Prefix
	done   chan<- struct{}
	ran    *atomic.Int32
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
	return testkit.Result{Name: t.name, Kind: t.Kind(), Checks: 1}
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
	// The fast tests signal completion; once all three have run we cancel.
	// The hang unblocks with an errored result, and "never" — behind the
	// hang on worker 0 — must be skipped by the suite's ctx check.
	done := make(chan struct{}, 3)
	var neverRan atomic.Int32
	suite := testkit.Suite{
		markerTest{name: "fastA", prefix: mustPrefix(t, "10.1.0.0/16"), done: done},
		markerTest{name: "fastB", prefix: mustPrefix(t, "10.2.0.0/16"), done: done},
		faults.HangTest{},
		markerTest{name: "fastC", prefix: mustPrefix(t, "10.3.0.0/16"), done: done},
		markerTest{name: "never", prefix: mustPrefix(t, "10.4.0.0/16"), ran: &neverRan},
	}
	go func() {
		for i := 0; i < 3; i++ {
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

func TestBudgetTripOnOneShardFailsRunDeterministically(t *testing.T) {
	ctx := context.Background()
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 gets the budget burner; worker 1 gets a real test. The
	// shard budget (MaxOps/2) stops the burner; the sibling completes.
	suite := testkit.Suite{
		faults.BudgetTest{},
		markerTest{name: "sibling", prefix: mustPrefix(t, "10.9.0.0/16")},
	}
	cfg := Config{Workers: 2, Limits: bdd.Limits{MaxOps: 20000}}

	eng, err := New(ctx, canonical, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, err := eng.Run(ctx, suite)
		if !errors.Is(err, bdd.ErrBudgetExceeded) {
			t.Fatalf("round %d: err = %v, want ErrBudgetExceeded", round, err)
		}
		if len(res.Results) != 2 {
			t.Fatalf("round %d: %d results, want 2", round, len(res.Results))
		}
		if !res.Results[0].Errored() {
			t.Errorf("round %d: budget burner status %s, want error", round, res.Results[0].Status())
		}
		if !res.Results[1].Pass() {
			t.Errorf("round %d: sibling status %s, want pass (budget trips must not cross shards)",
				round, res.Results[1].Status())
		}
		// The sibling's coverage still merged.
		sp := canonical.Space
		if !res.Trace.PacketsAt(sp, dataplane.Injected(0)).Equal(sp.DstPrefix(mustPrefix(t, "10.9.0.0/16"))) {
			t.Errorf("round %d: sibling marks missing from merged trace", round)
		}
	}

	// The same suite under an ample budget passes: the failure above was
	// the budget, not the engine.
	res, err := eng2Run(t, ctx, canonical, suite)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	if !res.Results[0].Pass() || !res.Results[1].Pass() {
		t.Error("unlimited run should pass both tests")
	}
}

func eng2Run(t *testing.T, ctx context.Context, canonical *netmodel.Network, suite testkit.Suite) (*Result, error) {
	t.Helper()
	eng, err := New(ctx, canonical, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run(ctx, suite)
}
