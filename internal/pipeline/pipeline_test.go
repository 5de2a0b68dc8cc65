package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

func regionalBuilder(opts topogen.RegionalOpts) func() (*netmodel.Network, error) {
	return func() (*netmodel.Network, error) {
		rg, err := topogen.BuildRegional(opts)
		if err != nil {
			return nil, err
		}
		return rg.Net, nil
	}
}

func exampleBuilder(opts topogen.ExampleOpts) func() (*netmodel.Network, error) {
	return func() (*netmodel.Network, error) {
		ex, err := topogen.BuildExample(opts)
		if err != nil {
			return nil, err
		}
		return ex.Net, nil
	}
}

func suite() testkit.Suite {
	return testkit.Suite{
		testkit.DefaultRouteCheck{},
		testkit.InternalRouteCheck{},
		testkit.ConnectedRouteCheck{},
	}
}

func TestNoChangeIsSafe(t *testing.T) {
	opts := topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1}
	res, err := Run(context.Background(), Config{
		Before: regionalBuilder(opts),
		After:  regionalBuilder(opts),
		Suite:  suite(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Fatalf("verdict = %v (regressions %v, drift %v)", res.Verdict, res.Regressions, res.Drift)
	}
	if res.PathsBefore == 0 || res.PathsBefore != res.PathsAfter {
		t.Errorf("path universe: %d -> %d", res.PathsBefore, res.PathsAfter)
	}
	if len(res.Results) != 3 {
		t.Errorf("results = %d", len(res.Results))
	}
}

func TestBadChangeFailsTests(t *testing.T) {
	// The change introduces B2's null-routed default: DefaultRouteCheck
	// fails on the post-change state.
	res, err := Run(context.Background(), Config{
		Before: exampleBuilder(topogen.ExampleOpts{}),
		After:  exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
		Suite:  testkit.Suite{testkit.DefaultRouteCheck{}},
		// Paths change too (B2 stops forwarding), but test failure wins.
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != TestsFailed {
		t.Fatalf("verdict = %v, want tests-failed", res.Verdict)
	}
}

func TestSilentChangeFlaggedByDrift(t *testing.T) {
	// The same null-route bug, but the suite contains only tests blind
	// to it. The path-universe guard flags that the network's behavior
	// changed: the default-route paths through B2 disappear.
	blindSuite := testkit.Suite{testkit.ConnectedRouteCheck{}}
	res, err := Run(context.Background(), Config{
		Before:         exampleBuilder(topogen.ExampleOpts{}),
		After:          exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
		Suite:          blindSuite,
		DriftThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != UniverseDrifted {
		t.Fatalf("verdict = %v (paths %d -> %d), want drift flag",
			res.Verdict, res.PathsBefore, res.PathsAfter)
	}
	if res.PathsAfter >= res.PathsBefore {
		t.Errorf("null route should shrink the path universe: %d -> %d", res.PathsBefore, res.PathsAfter)
	}
}

func TestNegativeDriftThresholdDisablesGuard(t *testing.T) {
	// The same silent change, but with the guard explicitly disabled:
	// drift is still reported, never flagged.
	blindSuite := testkit.Suite{testkit.ConnectedRouteCheck{}}
	res, err := Run(context.Background(), Config{
		Before:         exampleBuilder(topogen.ExampleOpts{}),
		After:          exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
		Suite:          blindSuite,
		DriftThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftFlagged {
		t.Error("negative DriftThreshold must disable the drift guard")
	}
	if res.Verdict == UniverseDrifted {
		t.Errorf("verdict = %v with guard disabled", res.Verdict)
	}
	if res.Drift == 0 {
		t.Error("drift should still be reported with the guard disabled")
	}
	if res.PathsBefore == 0 || res.PathsAfter == 0 {
		t.Error("path universe should still be counted with the guard disabled")
	}
}

func TestTopologyGrowthRegressesCoverage(t *testing.T) {
	// Growing the network without growing the (role-limited) suite:
	// AggCanReachTorLoopback doesn't test spines, so new spine rules
	// reduce per-spine coverage? Per-device comparison skips new
	// devices, so instead shrink the suite's reach by adding WAN
	// prefixes, which no test in the suite covers — the spines'
	// rule coverage drops.
	before := topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 2}
	after := before
	after.WANPrefixes = 64
	res, err := Run(context.Background(), Config{
		Before:           regionalBuilder(before),
		After:            regionalBuilder(after),
		Suite:            suite(),
		SkipPathUniverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != CoverageRegressed {
		t.Fatalf("verdict = %v, want coverage-regressed", res.Verdict)
	}
	// The regressions implicate spines/hubs (where WAN routes live).
	for _, r := range res.Regressions {
		if r.Metric != "rule-fractional" && r.Metric != "rule-weighted" && r.Metric != "device-fractional" {
			t.Errorf("unexpected regressed metric %s", r.Metric)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("missing builders should error")
	}
	if _, err := Run(context.Background(), Config{
		Before: func() (*netmodel.Network, error) { return nil, errBoom },
		After:  regionalBuilder(topogen.RegionalOpts{}),
	}); err == nil {
		t.Error("builder error should propagate")
	}
}

var errBoom = &buildError{}

type buildError struct{}

func (*buildError) Error() string { return "boom" }

func TestVerdictStrings(t *testing.T) {
	for _, v := range []Verdict{Safe, TestsFailed, TestsErrored, CoverageRegressed, UniverseDrifted, Incomplete} {
		if v.String() == "unknown" {
			t.Errorf("verdict %d has no name", v)
		}
	}
}

func smallOpts() topogen.RegionalOpts {
	return topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1}
}

func TestCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Run(ctx, Config{
		Before: regionalBuilder(smallOpts()),
		After:  regionalBuilder(smallOpts()),
		Suite:  suite(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result must never be nil")
	}
	if res.Verdict != Incomplete {
		t.Errorf("verdict = %v, want incomplete", res.Verdict)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled run took %v, want prompt return", elapsed)
	}
}

func TestCancellationMidRunYieldsPartialResult(t *testing.T) {
	// Cancel during the after phase: the before phase's numbers are
	// already recorded on the partial result.
	ctx, cancel := context.WithCancel(context.Background())
	afterBuilder := func() (*netmodel.Network, error) {
		cancel() // fires when the after phase starts building
		return regionalBuilder(smallOpts())()
	}
	res, err := Run(ctx, Config{
		Before: regionalBuilder(smallOpts()),
		After:  afterBuilder,
		Suite:  suite(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Verdict != Incomplete {
		t.Errorf("verdict = %v, want incomplete", res.Verdict)
	}
	if res.PathsBefore == 0 {
		t.Error("before phase completed; its path count belongs on the partial result")
	}
}

func TestPanickingTestYieldsTestsErrored(t *testing.T) {
	panicking := panicTest{}
	res, err := Run(context.Background(), Config{
		Before: regionalBuilder(smallOpts()),
		After:  regionalBuilder(smallOpts()),
		Suite: testkit.Suite{
			testkit.DefaultRouteCheck{},
			panicking,
			testkit.ConnectedRouteCheck{},
		},
		SkipPathUniverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != TestsErrored {
		t.Fatalf("verdict = %v, want tests-errored", res.Verdict)
	}
	if len(res.Results) != 3 {
		t.Fatalf("got %d results, want 3 (suite must survive the panic)", len(res.Results))
	}
	var errored int
	for _, r := range res.Results {
		if r.Errored() {
			errored++
		}
	}
	if errored != 1 {
		t.Fatalf("got %d errored results, want exactly 1", errored)
	}
}

func TestBDDLimitsSurfaceAsBudgetError(t *testing.T) {
	// Measure the baseline node population of the built network, then
	// grant evaluation almost no headroom: the suite's symbolic work
	// trips MaxNodes, and Run reports it as a typed error — no panic,
	// no OOM — with verdict Incomplete.
	probe, err := topogen.BuildRegional(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	probe.Net.ComputeMatchSets()
	baseline := probe.Net.Space.Manager().Size()

	res, err := Run(context.Background(), Config{
		Before: regionalBuilder(smallOpts()),
		After:  regionalBuilder(smallOpts()),
		Suite:  suite(),
		Limits: bdd.Limits{MaxNodes: baseline + 16},
	})
	if !errors.Is(err, bdd.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || res.Verdict != Incomplete {
		t.Fatalf("res = %+v, want non-nil with verdict incomplete", res)
	}
}

func TestPathBudgetSuppressesDriftGuard(t *testing.T) {
	// The null-route change drifts the path universe, but a tiny path
	// budget truncates enumeration on both sides: the guard must stand
	// down (with a reason) instead of flagging from meaningless counts.
	res, err := Run(context.Background(), Config{
		Before:         exampleBuilder(topogen.ExampleOpts{}),
		After:          exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
		Suite:          testkit.Suite{testkit.ConnectedRouteCheck{}},
		DriftThreshold: 0.05,
		PathBudget:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PathsTruncated {
		t.Fatal("PathBudget=1 must truncate enumeration")
	}
	if res.DriftFlagged {
		t.Error("drift guard must be suppressed on truncated counts")
	}
	if res.DriftNote == "" {
		t.Error("suppressed guard must say why")
	}
	if res.Verdict == UniverseDrifted {
		t.Errorf("verdict = %v from truncated counts", res.Verdict)
	}
}

type panicTest struct{}

func (panicTest) Name() string       { return "PanicTest" }
func (panicTest) Kind() testkit.Kind { return testkit.StateInspection }
func (panicTest) Run(*netmodel.Network, core.Tracker) testkit.Result {
	panic("pipeline chaos: injected panic")
}

func TestWorkersMatchesSequential(t *testing.T) {
	// The parallel evaluation path must be invisible in the output:
	// identical verdict, test results, and coverage metrics. Workers
	// evaluate clones of the built state, so each builder runs once
	// whatever the parallelism.
	opts := smallOpts()
	run := func(workers int) *Result {
		t.Helper()
		builds := 0
		counted := func() (*netmodel.Network, error) {
			builds++
			return regionalBuilder(opts)()
		}
		res, err := Run(context.Background(), Config{
			Before:  counted,
			After:   counted,
			Suite:   suite(),
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if builds != 2 {
			t.Errorf("workers=%d: %d builder calls, want one each for before and after", workers, builds)
		}
		return res
	}
	seq := run(1)
	par := run(3)
	if par.Verdict != seq.Verdict {
		t.Errorf("verdict %v, want %v", par.Verdict, seq.Verdict)
	}
	if par.BeforeCoverage != seq.BeforeCoverage || par.AfterCoverage != seq.AfterCoverage {
		t.Errorf("coverage differs: %+v/%+v vs %+v/%+v",
			par.BeforeCoverage, par.AfterCoverage, seq.BeforeCoverage, seq.AfterCoverage)
	}
	if len(par.Results) != len(seq.Results) {
		t.Fatalf("%d results, want %d", len(par.Results), len(seq.Results))
	}
	for i := range par.Results {
		if par.Results[i].Name != seq.Results[i].Name || par.Results[i].Status() != seq.Results[i].Status() {
			t.Errorf("result %d: %s/%s, want %s/%s", i,
				par.Results[i].Name, par.Results[i].Status(),
				seq.Results[i].Name, seq.Results[i].Status())
		}
	}
	if par.PathsBefore != seq.PathsBefore || par.PathsAfter != seq.PathsAfter {
		t.Errorf("path universe differs: %d/%d vs %d/%d",
			par.PathsBefore, par.PathsAfter, seq.PathsBefore, seq.PathsAfter)
	}
}

func TestWorkersBudgetTripIsIncomplete(t *testing.T) {
	// A shard budget trip must degrade exactly like the sequential case:
	// error wrapping ErrBudgetExceeded, verdict Incomplete.
	res, err := Run(context.Background(), Config{
		Before:  regionalBuilder(smallOpts()),
		After:   regionalBuilder(smallOpts()),
		Suite:   suite(),
		Workers: 2,
		Limits:  bdd.Limits{MaxOps: 200},
	})
	if !errors.Is(err, bdd.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || res.Verdict != Incomplete {
		t.Fatalf("res = %+v, want non-nil with verdict incomplete", res)
	}
}
