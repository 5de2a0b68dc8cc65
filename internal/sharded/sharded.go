// Package sharded evaluates a test suite across a pool of workers, each
// with its own BDD space, and merges the per-worker coverage traces back
// into a canonical space exactly.
//
// The ATU coverage framework is embarrassingly parallel at the test
// granularity: tests only interact through the trace, and Trace.Merge is
// order-independent. A test that implements testkit.Splitter is
// parallel below it too: its parts run disjoint ranges of its sources.
// What blocks naive parallelism is the BDD manager — it is
// single-threaded by design (hash-consed unique table, memoized apply
// loops) and must stay that way. This package therefore replicates
// the *universe* instead of locking it: each worker owns a private
// network replica whose hdr.Space wraps a private manager. Workers run
// disjoint partitions of the suite through testkit.Suite.Run (keeping
// the per-test runIsolated panic boundary), record into worker-local
// traces, and the engine merges those traces into the canonical space
// with the cross-space transfer kernel (core.Trace.TransferTo — a
// node-by-node DAG copy, no cube round-trip).
//
// Replicas are arena clones: netmodel.Network.Clone snapshots the
// canonical network's flat BDD arena in O(size), carrying every
// frozen match set into the replica by node index instead of re-deriving
// it from configuration. A clone's node indices below the snapshot point
// are identical to the canonical space's forever (managers are
// append-only), so the merge recognizes the shared prefix and costs
// O(nodes the workers created), not O(universe). There is no other kind
// of replica; the package's tests hold the clones to a network rebuilt
// from its JSON encoding. A pool is bound to the network as it was at
// New: after the canonical network is mutated, build a new engine.
//
// Partition: when two or more tests of the suite split (ToRReachability
// and ToRPingmesh), part k of each goes to shard k and the run uses the
// whole pool. Splittable tests agree on their source ranges, so shard k
// runs ToRReachability's and ToRPingmesh's part k side by side on one
// trace, and every ping finds its hops covered by the flood from its
// source (a ping that misses pays a singleton and an Or per hop). A
// lone splittable test runs whole: split, it would share no hops, and
// each replica would pay its own class builds and lose the op cache its
// sources share. Whole tests are dealt round-robin in suite order, over
// one shard per test up to the pool size when nothing splits.
//
// Determinism: replicas are bit-identical to the canonical network, the
// partition is a pure function of the suite and the pool size, results
// are scattered back to suite order with each split test's parts folded
// into one Result (checks summed, failures concatenated in part order,
// which is the whole test's order, the first errored part's Err), and
// the merged trace is a union of per-location sets — order-independent
// by construction. Workers=1 and Workers=N therefore produce identical
// results and metrics.
//
// Cancellation composes with the degradation model: every worker
// observes the run context via WatchContext, and the canonical space
// observes it through the merge.
package sharded

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/testkit"
)

// Registry metric names recorded by instrumented runs (a span with an
// attached registry must be in the run context; without one the engine
// records nothing).
const (
	MetricRuns       = "yardstick_sharded_runs_total"
	MetricWorkerRuns = "yardstick_sharded_worker_runs_total"
	MetricWorkers    = "yardstick_sharded_workers"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers is the pool size, at least 1.
	Workers int
}

// ShardStats describes one worker's share of a run.
type ShardStats struct {
	// Worker is the shard index in [0, Workers).
	Worker int
	// Tests is the number of tests assigned to the shard: whole suite
	// entries and parts of splittable ones.
	Tests int
	// Completed is how many of them produced a Result (equals Tests
	// unless the run was cancelled mid-shard).
	Completed int
	// Engine reports the replica manager's counters after the run, with
	// Ops the run's own movement.
	Engine bdd.Stats
}

// Result is the outcome of one parallel run.
type Result struct {
	// Results holds one Result per suite entry that ran, in suite order
	// regardless of which workers ran it; a splittable test's parts are
	// folded into one. On a cancelled run it contains the tests that
	// completed before cancellation, and a split test only when every
	// one of its parts did.
	Results []testkit.Result
	// Trace is the merged coverage trace, in the canonical space. On a
	// failed run it holds whatever merged before the failure (coverage
	// is monotone, so a partial trace is still sound to accumulate).
	Trace *core.Trace
	// Shards reports per-worker statistics, ordered by worker index.
	Shards []ShardStats
}

// Engine is a reusable worker pool bound to one canonical network. The
// replicas are built once at New and reused across Run calls. An Engine
// is not safe for concurrent use: Run touches the canonical space during
// the merge phase, and the caller must not use the canonical space
// concurrently with Run.
type Engine struct {
	canonical *netmodel.Network
	replicas  []*netmodel.Network
}

// New builds an engine with cfg.Workers replicas of the canonical
// network: O(size) arena clones (netmodel.Network.Clone) that carry its
// frozen match sets and op-cache sizing by node index, so a replica
// costs a flat copy, not a re-derivation. The clones are taken
// concurrently — cloning a quiescent network is a pure read of it — so
// the caller must not use the canonical space until New returns.
func New(ctx context.Context, canonical *netmodel.Network, cfg Config) (*Engine, error) {
	if canonical == nil {
		return nil, errors.New("sharded: nil canonical network")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("sharded: %d workers", cfg.Workers)
	}
	canonical.ComputeMatchSets()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Replica construction is the engine's fixed cost; time it under the
	// caller's span (nil span → zero overhead).
	bsp := obs.SpanFromContext(ctx).Child("sharded.build_replicas")
	bsp.Set("workers", int64(cfg.Workers))
	defer bsp.End()

	replicas := make([]*netmodel.Network, cfg.Workers)
	var wg sync.WaitGroup
	for i := range replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replicas[i] = canonical.Clone()
		}(i)
	}
	wg.Wait()
	return &Engine{canonical: canonical, replicas: replicas}, nil
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return len(e.replicas) }

// Run evaluates suite across the pool and merges the results.
//
// Error semantics mirror the sequential degradation model: a cancelled
// context returns ctx.Err() with the partial merged trace and the results
// that completed — when the cancellation lands in the merge, an error
// wrapping it with what merged before it. The Result is never nil.
func (e *Engine) Run(ctx context.Context, suite testkit.Suite) (*Result, error) {
	res := &Result{Trace: core.NewTrace()}
	parts, index := partition(suite, len(e.replicas))
	w := len(parts)
	if w == 0 {
		return res, ctx.Err()
	}

	// Instrumentation is carried by the context: a span there (with or
	// without a registry) turns on per-shard timing; absent one, every
	// obs call below is a nil-receiver no-op.
	sp := obs.SpanFromContext(ctx)
	reg := sp.Registry()
	sp.Set("workers", int64(w))
	sp.Set("tests", int64(len(suite)))
	reg.Counter(MetricRuns).Inc()
	reg.Gauge(MetricWorkers).Set(float64(w))

	type shardOut struct {
		worker  int
		results []testkit.Result
		trace   *core.Trace
		stats   bdd.Stats
	}
	// runShard touches the replica's manager; its deferred WatchContext
	// restore must complete before the result is sent, or a subsequent
	// Run on the same engine could race with the restore write.
	runShard := func(i int) shardOut {
		rep := e.replicas[i]
		// Format the span name only when instrumented: the Sprintf would
		// otherwise be the uninstrumented path's only allocation.
		var ws *obs.Span
		if sp != nil {
			ws = sp.Child(fmt.Sprintf("shard[%d]", i))
		}
		defer ws.End()
		ws.Set("tests", int64(len(parts[i])))
		base := rep.Space.EngineStats()
		restore := rep.Space.WatchContext(ctx)
		defer restore()
		trace := core.NewTrace()
		results := testkit.Suite(parts[i]).Run(ctx, rep, trace)
		ws.Set("completed", int64(len(results)))
		reg.Counter(MetricWorkerRuns).Inc()
		stats := rep.Space.FlushStats(ws, reg, base)
		stats.Ops -= base.Ops
		return shardOut{worker: i, results: results, trace: trace, stats: stats}
	}
	ch := make(chan shardOut, w)
	for i := 0; i < w; i++ {
		go func(i int) { ch <- runShard(i) }(i)
	}

	outs := make([]shardOut, 0, w)
	for i := 0; i < w; i++ {
		outs = append(outs, <-ch)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].worker < outs[j].worker })

	// Scatter results back to their suite entries. Suite.Run returns a
	// prefix of its shard (cancellation skips the rest), so results
	// align with the shard's leading indices; shards are visited in
	// worker order, which is part order.
	got := make([][]testkit.Result, len(suite))
	dealt := make([]int, len(suite))
	for _, entries := range index {
		for _, i := range entries {
			dealt[i]++
		}
	}
	for _, o := range outs {
		for j, r := range o.results {
			got[index[o.worker][j]] = append(got[index[o.worker][j]], r)
		}
		res.Shards = append(res.Shards, ShardStats{
			Worker:    o.worker,
			Tests:     len(parts[o.worker]),
			Completed: len(o.results),
			Engine:    o.stats,
		})
	}
	for i, g := range got {
		if len(g) == dealt[i] { // else a part, or the whole test, did not run
			res.Results = append(res.Results, fold(g))
		}
	}

	// Merge worker traces into the canonical space, one at a time (the
	// canonical manager is single-threaded; the workers are done, so
	// their managers are quiescent sources). Union order cannot matter —
	// Trace.Merge is order-independent — but worker order keeps the
	// canonical unique table filling deterministically too. The transfer
	// charges the canonical manager; Guard converts a cancellation of the
	// context the caller has it watch into an error instead of unwinding
	// through us.
	// The merge span records the canonical manager's movement on the span
	// only: registry totals for the canonical engine are settled by its
	// owner (the service scrape path), not here, or the same ops would
	// count twice.
	msp := sp.Child("sharded.merge")
	mergeBase := e.canonical.Space.EngineStats()
	mergeErr := bdd.Guard(func() {
		for _, o := range outs {
			res.Trace.Merge(o.trace.TransferTo(e.canonical.Space))
		}
	})
	e.canonical.Space.FlushStats(msp, nil, mergeBase)
	msp.End()

	if mergeErr != nil {
		return res, fmt.Errorf("sharded: merging traces: %w", mergeErr)
	}
	return res, ctx.Err()
}

// partition deals suite over a pool of workers in suite order. When the
// suite has a split group (testkit.Suite.SplitTogether, the rule the
// coordinator groups its shards by too), part k of each of its tests
// goes to shard k of the whole pool; otherwise no test splits and the
// run uses one shard per test up to the pool size. Whole tests are
// dealt round-robin. index holds, for each shard's tests, the suite
// entry they fold into. The partition depends only on the suite and the
// pool size, never on scheduling, so reruns partition identically.
func partition(suite testkit.Suite, workers int) (parts [][]testkit.Test, index [][]int) {
	split := suite.SplitTogether()
	w := min(workers, len(suite))
	if slices.Contains(split, true) {
		w = workers
	}
	if w == 0 {
		return nil, nil
	}
	parts = make([][]testkit.Test, w)
	index = make([][]int, w)
	whole := 0
	for i, t := range suite {
		if split[i] {
			for k, p := range t.(testkit.Splitter).Split(w) {
				parts[k] = append(parts[k], p)
				index[k] = append(index[k], i)
			}
			continue
		}
		parts[whole%w] = append(parts[whole%w], t)
		index[whole%w] = append(index[whole%w], i)
		whole++
	}
	return parts, index
}

// fold joins a test's parts, in part order, into the Result the whole
// test returns: Checks add up, Failures concatenate (the parts run
// contiguous source ranges, so that is the whole test's order), and Err
// is the first errored part's.
func fold(parts []testkit.Result) testkit.Result {
	r := parts[0]
	for _, p := range parts[1:] {
		r.Checks += p.Checks
		r.Failures = append(r.Failures, p.Failures...)
		if r.Err == "" {
			r.Err = p.Err
		}
	}
	return r
}
