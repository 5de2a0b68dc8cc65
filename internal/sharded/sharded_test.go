package sharded

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// regionalOnce caches the canonical regional Clos network — BGP
// convergence plus match-set computation is the expensive part of these
// tests, so every test shares one canonical instance.
var regionalOnce = sync.OnceValues(func() (*netmodel.Network, error) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		return nil, err
	}
	return rg.Net, nil
})

func regionalNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n, err := regionalOnce()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func fullSuite(t *testing.T) testkit.Suite {
	t.Helper()
	s, err := testkit.BuiltinSuite("default,connected,internal,agg,contract,reach,pingmesh,host")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEngineReuseAcrossRuns(t *testing.T) {
	ctx := context.Background()
	canonical := regionalNet(t)
	eng, err := New(ctx, canonical, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	suite := fullSuite(t)
	first, err := eng.Run(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Results) != len(suite) || len(second.Results) != len(suite) {
		t.Fatalf("runs returned %d and %d results, want %d", len(first.Results), len(second.Results), len(suite))
	}
	for i := range first.Results {
		if first.Results[i].Status() != second.Results[i].Status() {
			t.Errorf("result %d status changed across runs: %s -> %s",
				i, first.Results[i].Status(), second.Results[i].Status())
		}
	}
	// Each run reports its own ops, not the replica's running total: the
	// two add up to it. (The second run charges fewer; the op cache is
	// warm.)
	for i, rep := range eng.replicas {
		a, b := first.Shards[i].Engine.Ops, second.Shards[i].Engine.Ops
		if total := rep.Space.EngineStats().Ops; a == 0 || b == 0 || a+b != total {
			t.Errorf("worker %d reported %d ops, then %d; its replica charged %d in all", i, a, b, total)
		}
	}
}

// TestShardStatsAndOrdering: every whole test lands in exactly one
// shard, every splittable test gives part k to shard k and nothing else
// to any shard, the shard stats count what the partition dealt, and the
// results come back one per suite entry, in suite order.
func TestShardStatsAndOrdering(t *testing.T) {
	ctx := context.Background()
	canonical := regionalNet(t)
	suite := fullSuite(t)
	const w = 3
	parts, index := partition(suite, w)
	for i, test := range suite {
		var at [][2]int // (shard, position) of every test dealt for entry i
		for k := range index {
			for j, e := range index[k] {
				if e == i {
					at = append(at, [2]int{k, j})
				}
			}
		}
		s, split := test.(testkit.Splitter)
		switch {
		case !split && (len(at) != 1 || !reflect.DeepEqual(parts[at[0][0]][at[0][1]], test)):
			t.Errorf("whole test %s dealt to (shard, position) %v, want itself in exactly one shard", test.Name(), at)
		case split && len(at) != w:
			t.Errorf("splittable test %s dealt to (shard, position) %v, want one part in each of %d shards", test.Name(), at, w)
		case split:
			for k, p := range s.Split(w) {
				if at[k][0] != k || !reflect.DeepEqual(parts[k][at[k][1]], p) {
					t.Errorf("splittable test %s: shard %d holds %+v, want part %d", test.Name(), at[k][0], parts[at[k][0]][at[k][1]], k)
				}
			}
		}
	}

	eng, err := New(ctx, canonical, Config{Workers: w})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != w {
		t.Fatalf("got %d shard stats, want %d", len(res.Shards), w)
	}
	for i, s := range res.Shards {
		if s.Worker != i {
			t.Errorf("shard stats out of order: entry %d is worker %d", i, s.Worker)
		}
		if s.Tests != len(parts[i]) || s.Completed != s.Tests {
			t.Errorf("worker %d completed %d of %d tests, want all %d it was dealt", i, s.Completed, s.Tests, len(parts[i]))
		}
	}
	// Results come back in suite order regardless of worker scheduling.
	if len(res.Results) != len(suite) {
		t.Fatalf("%d results, want %d", len(res.Results), len(suite))
	}
	for i, r := range res.Results {
		if r.Name != suite[i].Name() {
			t.Errorf("result %d is %q, want %q", i, r.Name, suite[i].Name())
		}
	}
}

// TestPoolLargerThanSources: on a fat-tree with two sources, pools of
// three and four give the reachability and pingmesh tests empty parts.
// The folded results and the merged trace equal a sequential run's.
func TestPoolLargerThanSources(t *testing.T) {
	ctx := context.Background()
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}
	sources := 0
	for _, d := range canonical.Devices {
		if len(d.Subnets) > 0 {
			sources++
		}
	}
	if sources != 2 {
		t.Fatalf("the fat-tree has %d sources, want 2", sources)
	}
	suite := testkit.Suite{testkit.ToRReachability{}, testkit.DefaultRouteCheck{}, testkit.ToRPingmesh{}}
	seq := core.NewTrace()
	want := suite.Run(ctx, canonical, seq)
	for _, w := range []int{3, 4} {
		eng, err := New(ctx, canonical, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(ctx, suite)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Shards) != w {
			t.Errorf("workers=%d: %d shards ran, want the whole pool", w, len(res.Shards))
		}
		if !reflect.DeepEqual(res.Results, want) {
			t.Errorf("workers=%d: results %+v, want the sequential %+v", w, res.Results, want)
		}
		if !res.Trace.Equal(seq) {
			t.Errorf("workers=%d: the merged trace differs from the sequential one", w)
		}
	}
}

// TestLoneSplitterRunsWhole: a suite with one splittable test splits
// nothing, so the run uses one shard per test, as before tests split,
// and matches a sequential run.
func TestLoneSplitterRunsWhole(t *testing.T) {
	ctx := context.Background()
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}
	suite := testkit.Suite{testkit.ToRReachability{}, testkit.DefaultRouteCheck{}}
	if parts, _ := partition(suite, 3); !reflect.DeepEqual(parts, [][]testkit.Test{{suite[0]}, {suite[1]}}) {
		t.Errorf("partition = %+v, want each test whole on its own shard", parts)
	}
	seq := core.NewTrace()
	want := suite.Run(ctx, canonical, seq)
	eng, err := New(ctx, canonical, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != len(suite) {
		t.Errorf("%d shards ran, want one per test", len(res.Shards))
	}
	if !reflect.DeepEqual(res.Results, want) {
		t.Errorf("results %+v, want the sequential %+v", res.Results, want)
	}
	if !res.Trace.Equal(seq) {
		t.Error("the merged trace differs from the sequential one")
	}
}

// TestFold pins how a split test's parts fold into one Result: checks
// add up, failures concatenate in part order, and the first errored
// part's Err is the test's.
func TestFold(t *testing.T) {
	f := func(d netmodel.DeviceID, s string) testkit.Failure { return testkit.Failure{Device: d, Detail: s} }
	got := fold([]testkit.Result{
		{Name: "T", Kind: testkit.E2ESymbolic, Checks: 2, Failures: []testkit.Failure{f(0, "a"), f(1, "b")}},
		{Name: "T", Kind: testkit.E2ESymbolic},
		{Name: "T", Kind: testkit.E2ESymbolic, Checks: 1, Err: "panic: first"},
		{Name: "T", Kind: testkit.E2ESymbolic, Checks: 3, Failures: []testkit.Failure{f(4, "c")}, Err: "second"},
	})
	want := testkit.Result{Name: "T", Kind: testkit.E2ESymbolic, Checks: 6,
		Failures: []testkit.Failure{f(0, "a"), f(1, "b"), f(4, "c")}, Err: "panic: first"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold = %+v, want %+v", got, want)
	}
	if got := fold([]testkit.Result{{Name: "T"}, {Name: "T"}}); got.Failures != nil || !got.Pass() {
		t.Errorf("passing parts fold to %+v, want a pass with no failures", got)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	canonical := regionalNet(t)
	if _, err := New(ctx, nil, Config{}); err == nil {
		t.Error("nil canonical network should be rejected")
	}
	for _, w := range []int{0, -1} {
		if _, err := New(ctx, canonical, Config{Workers: w}); err == nil {
			t.Errorf("a pool of %d workers should be rejected", w)
		}
	}
	if eng, err := New(ctx, canonical, Config{Workers: 2}); err != nil || eng.Workers() != 2 {
		t.Errorf("a two-worker pool over a valid network: %v", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := New(cancelled, canonical, Config{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("New on a cancelled context = %v, want context.Canceled", err)
	}
}

func TestEmptySuite(t *testing.T) {
	ctx := context.Background()
	canonical := regionalNet(t)
	eng, err := New(ctx, canonical, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 0 || res.Trace == nil {
		t.Error("empty suite should yield an empty result with a usable trace")
	}
}
