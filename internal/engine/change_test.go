package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"yardstick/internal/faults"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// The tolerances changecheck defaults to; EvaluateChange takes zero as
// zero.
const (
	defaultEpsilon = 0.01
	defaultDrift   = 0.2
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

func changeSuite() testkit.Suite {
	return testkit.Suite{
		testkit.DefaultRouteCheck{},
		testkit.InternalRouteCheck{},
		testkit.ConnectedRouteCheck{},
	}
}

var smallOpts = topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1}

func TestNoChangeIsSafe(t *testing.T) {
	res, err := EvaluateChange(bg, ChangeConfig{
		Before:            regionalBuilder(smallOpts),
		After:             regionalBuilder(smallOpts),
		Suite:             changeSuite(),
		RegressionEpsilon: defaultEpsilon,
		DriftThreshold:    defaultDrift,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictSafe {
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
	res, err := EvaluateChange(bg, ChangeConfig{
		Before:            exampleBuilder(topogen.ExampleOpts{}),
		After:             exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
		Suite:             testkit.Suite{testkit.DefaultRouteCheck{}},
		RegressionEpsilon: defaultEpsilon,
		// Paths change too (B2 stops forwarding), but test failure wins.
		DriftThreshold: defaultDrift,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictTestsFailed {
		t.Fatalf("verdict = %v, want tests-failed", res.Verdict)
	}
}

func TestSilentChangeFlaggedByDrift(t *testing.T) {
	// The same null-route bug, but the suite contains only tests blind
	// to it. The path-universe guard flags that the network's behavior
	// changed: the default-route paths through B2 disappear. The change
	// is below the 0.2 default, and a zero threshold is a zero
	// tolerance, not the default: it flags the change too.
	blindSuite := testkit.Suite{testkit.ConnectedRouteCheck{}}
	for _, threshold := range []float64{0.05, 0} {
		res, err := EvaluateChange(bg, ChangeConfig{
			Before:            exampleBuilder(topogen.ExampleOpts{}),
			After:             exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
			Suite:             blindSuite,
			RegressionEpsilon: defaultEpsilon,
			DriftThreshold:    threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != VerdictUniverseDrifted {
			t.Fatalf("threshold %v: verdict = %v (paths %d -> %d), want drift flag",
				threshold, res.Verdict, res.PathsBefore, res.PathsAfter)
		}
		if res.PathsAfter >= res.PathsBefore || -res.Drift >= defaultDrift {
			t.Errorf("null route should shrink the path universe by less than %v: %d -> %d",
				defaultDrift, res.PathsBefore, res.PathsAfter)
		}
	}
}

func TestNegativeDriftThresholdDisablesGuard(t *testing.T) {
	// The same silent change, but with the guard explicitly disabled:
	// drift is still reported, never flagged.
	blindSuite := testkit.Suite{testkit.ConnectedRouteCheck{}}
	res, err := EvaluateChange(bg, ChangeConfig{
		Before:            exampleBuilder(topogen.ExampleOpts{}),
		After:             exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
		Suite:             blindSuite,
		RegressionEpsilon: defaultEpsilon,
		DriftThreshold:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftFlagged {
		t.Error("negative DriftThreshold must disable the drift guard")
	}
	if res.Verdict == VerdictUniverseDrifted {
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
	before := smallOpts
	before.WANPrefixes = 2
	after := before
	after.WANPrefixes = 64
	res, err := EvaluateChange(bg, ChangeConfig{
		Before:            regionalBuilder(before),
		After:             regionalBuilder(after),
		Suite:             changeSuite(),
		RegressionEpsilon: defaultEpsilon,
		SkipPathUniverse:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictCoverageRegressed {
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
	if _, err := EvaluateChange(bg, ChangeConfig{}); err == nil {
		t.Error("missing builders should error")
	}
	if _, err := EvaluateChange(bg, ChangeConfig{
		Before: func() (*netmodel.Network, error) { return nil, errors.New("boom") },
		After:  regionalBuilder(topogen.RegionalOpts{}),
	}); err == nil {
		t.Error("builder error should propagate")
	}
}

func TestVerdictStrings(t *testing.T) {
	for _, v := range []Verdict{VerdictSafe, VerdictTestsFailed, VerdictTestsErrored, VerdictCoverageRegressed, VerdictUniverseDrifted, VerdictIncomplete} {
		if v.String() == "unknown" {
			t.Errorf("verdict %d has no name", v)
		}
	}
}

func TestCancelledContextReturnsPromptly(t *testing.T) {
	start := time.Now()
	res, err := EvaluateChange(cancelled(), ChangeConfig{
		Before: regionalBuilder(smallOpts),
		After:  regionalBuilder(smallOpts),
		Suite:  changeSuite(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result must never be nil")
	}
	if res.Verdict != VerdictIncomplete {
		t.Errorf("verdict = %v, want incomplete", res.Verdict)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled run took %v, want prompt return", elapsed)
	}
}

func TestCancellationMidRunYieldsPartialResult(t *testing.T) {
	// Cancel during the after phase: the before phase's numbers are
	// already recorded on the partial result.
	ctx, cancel := context.WithCancel(bg)
	afterBuilder := func() (*netmodel.Network, error) {
		cancel() // fires when the after phase starts building
		return regionalBuilder(smallOpts)()
	}
	res, err := EvaluateChange(ctx, ChangeConfig{
		Before: regionalBuilder(smallOpts),
		After:  afterBuilder,
		Suite:  changeSuite(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Verdict != VerdictIncomplete {
		t.Errorf("verdict = %v, want incomplete", res.Verdict)
	}
	if res.PathsBefore == 0 {
		t.Error("before phase completed; its path count belongs on the partial result")
	}
}

func TestPanickingTestYieldsTestsErrored(t *testing.T) {
	res, err := EvaluateChange(bg, ChangeConfig{
		Before: regionalBuilder(smallOpts),
		After:  regionalBuilder(smallOpts),
		Suite: testkit.Suite{
			testkit.DefaultRouteCheck{},
			faults.PanicTest{},
			testkit.ConnectedRouteCheck{},
		},
		RegressionEpsilon: defaultEpsilon,
		SkipPathUniverse:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictTestsErrored {
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

func TestPathBudgetSuppressesDriftGuard(t *testing.T) {
	// The null-route change drifts the path universe, but a tiny path
	// budget truncates enumeration on both sides: the guard must stand
	// down (with a reason) instead of flagging from meaningless counts.
	res, err := EvaluateChange(bg, ChangeConfig{
		Before:            exampleBuilder(topogen.ExampleOpts{}),
		After:             exampleBuilder(topogen.ExampleOpts{BugNullRoute: true}),
		Suite:             testkit.Suite{testkit.ConnectedRouteCheck{}},
		RegressionEpsilon: defaultEpsilon,
		DriftThreshold:    0.05,
		PathBudget:        1,
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
	if res.Verdict == VerdictUniverseDrifted {
		t.Errorf("verdict = %v from truncated counts", res.Verdict)
	}
}

// profiled runs EvaluateChange under a root span in the context, the way
// a front end profiles it, and returns the closed root.
func profiled(t *testing.T, ctx context.Context, reg *obs.Registry, cfg ChangeConfig) (*obs.Span, *ChangeResult, error) {
	t.Helper()
	root := obs.NewRoot("test", reg)
	res, err := EvaluateChange(obs.ContextWithSpan(ctx, root), cfg)
	root.End()
	if len(root.Children()) != 1 || root.Children()[0].Name() != "pipeline.run" {
		t.Fatalf("root children %v, want one pipeline.run", root.Children())
	}
	return root, res, err
}

// TestProfileSpanTree: a run under a span yields a closed pipeline.run
// subtree whose stage spans cover its wall time, with BDD counters
// settled into the registry.
//
// Only setup runs outside the before and after stages. A loaded host
// can deschedule the process between spans, which only ever adds
// unaccounted time, so the claim is checked on the least unaccounted
// share of three runs.
func TestProfileSpanTree(t *testing.T) {
	var (
		reg   *obs.Registry
		names = map[string]int{}
		gaps  []string
		fits  bool
	)
	for range 3 {
		reg = obs.NewRegistry()
		start := time.Now()
		root, _, err := profiled(t, bg, reg, ChangeConfig{
			Before: regionalBuilder(smallOpts),
			After:  regionalBuilder(smallOpts),
			Suite:  changeSuite(),
		})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if open := openSpans(root.Profile()); open != 0 {
			t.Errorf("open spans = %d, want 0", open)
		}
		run := root.Children()[0]
		if d := run.Duration(); d > wall {
			t.Errorf("pipeline.run span %v exceeds wall time %v", d, wall)
		}
		var stages time.Duration
		run.Profile().Walk(func(_ int, sp *obs.SpanProfile) {
			names[sp.Name]++
			if sp.Name == "before" || sp.Name == "after" {
				stages += sp.Duration()
			}
		})
		if stages > run.Duration() {
			t.Errorf("stage spans %v exceed pipeline.run %v", stages, run.Duration())
		}
		fits = fits || run.Duration()-stages <= run.Duration()/10+time.Millisecond
		gaps = append(gaps, fmt.Sprintf("%v of %v", run.Duration()-stages, run.Duration()))
	}
	if !fits {
		t.Errorf("stages leave too much of pipeline.run unaccounted in every run: %s", strings.Join(gaps, ", "))
	}
	for _, want := range []string{"pipeline.run", "before", "after", "pipeline.build", "pipeline.suite", "pipeline.coverage", "pipeline.paths"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from profile (have %v)", want, names)
		}
	}
	// Registry side: stage histogram observed, BDD work settled.
	found := map[string]bool{}
	for _, m := range reg.Snapshot() {
		if m.Value > 0 || m.Count > 0 {
			found[m.Name] = true
		}
	}
	for _, want := range []string{
		"yardstick_stage_duration_seconds",
		"yardstick_bdd_ops_total",
		"yardstick_bdd_cache_hits_total",
		"yardstick_bdd_nodes_allocated_total",
	} {
		if !found[want] {
			t.Errorf("registry missing non-zero %s", want)
		}
	}
}

// TestProfileSpansClosedOnPanic: a panicking test must not leak spans —
// every span in the profile is closed by its deferred End.
func TestProfileSpansClosedOnPanic(t *testing.T) {
	root, res, err := profiled(t, bg, obs.NewRegistry(), ChangeConfig{
		Before:            regionalBuilder(smallOpts),
		After:             regionalBuilder(smallOpts),
		Suite:             testkit.Suite{testkit.DefaultRouteCheck{}, faults.PanicTest{}, testkit.ConnectedRouteCheck{}},
		RegressionEpsilon: defaultEpsilon,
		DriftThreshold:    defaultDrift,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictTestsErrored {
		t.Fatalf("verdict = %v, want tests-errored", res.Verdict)
	}
	if open := openSpans(root.Profile()); open != 0 {
		t.Errorf("open spans after panic = %d, want 0", open)
	}
}

// TestProfileSpansClosedOnCancel: cancellation mid-run still closes
// every span on the way out.
func TestProfileSpansClosedOnCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	root, _, err := profiled(t, ctx, obs.NewRegistry(), ChangeConfig{
		Before: regionalBuilder(smallOpts),
		After:  regionalBuilder(smallOpts),
		Suite:  testkit.Suite{testkit.DefaultRouteCheck{}, faults.HangTest{}},
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if open := openSpans(root.Profile()); open != 0 {
		var sb strings.Builder
		obs.WriteFlame(&sb, root)
		t.Errorf("open spans after cancel = %d, want 0\n%s", open, sb.String())
	}
}
