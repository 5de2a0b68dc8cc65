package sharded

import (
	"context"
	"errors"
	"sync"
	"testing"

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
}

func TestShardStatsAndOrdering(t *testing.T) {
	ctx := context.Background()
	canonical := regionalNet(t)
	suite := fullSuite(t)
	eng, err := New(ctx, canonical, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 3 {
		t.Fatalf("got %d shard stats, want 3", len(res.Shards))
	}
	total := 0
	for i, s := range res.Shards {
		if s.Worker != i {
			t.Errorf("shard stats out of order: entry %d is worker %d", i, s.Worker)
		}
		if s.Completed != s.Tests {
			t.Errorf("worker %d completed %d of %d without cancellation", i, s.Completed, s.Tests)
		}
		total += s.Tests
	}
	if total != len(suite) {
		t.Errorf("partition covers %d tests, want %d", total, len(suite))
	}
	// Results come back in suite order regardless of worker scheduling.
	for i, r := range res.Results {
		if r.Name != suite[i].Name() {
			t.Errorf("result %d is %q, want %q", i, r.Name, suite[i].Name())
		}
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

func TestShardLimitsSplit(t *testing.T) {
	l := shardLimits(Limits{MaxNodes: 100, MaxOps: 10}, 4)
	if l.MaxNodes != 100 {
		t.Errorf("MaxNodes = %d, want 100 (per-manager cap, not split)", l.MaxNodes)
	}
	if l.MaxOps != 3 {
		t.Errorf("MaxOps = %d, want 3 (ceiling of 10/4)", l.MaxOps)
	}
	if got := shardLimits(Limits{}, 4); got != (Limits{}) {
		t.Errorf("zero limits should stay zero, got %+v", got)
	}
	if got := shardLimits(Limits{MaxOps: 10}, 1); got.MaxOps != 10 {
		t.Errorf("single worker keeps the full op budget, got %d", got.MaxOps)
	}
}
