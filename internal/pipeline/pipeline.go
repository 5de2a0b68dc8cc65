// Package pipeline implements the deployment context Yardstick runs in
// (§7.1 "Testing Pipeline"): the network undergoes a change, a simulator
// computes the forwarding state that will result, a test suite checks
// that state, and Yardstick augments the pass/fail report with coverage
// metrics so operators can judge both whether the change is safe and how
// much the verdict can be trusted.
//
// A Run takes a network *builder* (so the pipeline controls both the
// before and after states), a change to apply to the builder's
// configuration, and a test suite. It reports test results, coverage,
// per-device coverage regressions against the pre-change snapshot, and
// the path-universe drift guard of §5.2.
//
// Run degrades rather than crashes: cancellation, per-test panics, and
// BDD resource budgets (Config.Limits) each produce a structured partial
// Result. See the Verdict values TestsErrored and Incomplete.
package pipeline

import (
	"context"
	"fmt"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/engine"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/testkit"
)

// Verdict summarizes a change evaluation.
type Verdict uint8

// Verdicts. Human oversight is expected for everything but Safe (§7.1:
// "Human oversight is needed here because it is possible that tests may
// fail as a result of modeling error or transient failures").
const (
	// Safe: all tests pass, no coverage regressions, path universe
	// stable.
	Safe Verdict = iota
	// TestsFailed: at least one test failed on the post-change state.
	TestsFailed
	// TestsErrored: no test failed, but at least one terminated
	// abnormally (panic, budget, cancellation) — its assertions never
	// finished, so the run vouches for less than the suite promises.
	TestsErrored
	// CoverageRegressed: tests pass but the suite now exercises less of
	// the network than before — the verdict is weaker than it looks.
	CoverageRegressed
	// UniverseDrifted: tests pass but the path universe changed
	// dramatically; the network's structure may have changed in ways
	// the suite does not see.
	UniverseDrifted
	// Incomplete: the evaluation itself was cut short (cancelled, or a
	// resource budget tripped outside any single test); the Result
	// holds whatever phases finished, and Run also returns the error.
	Incomplete
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case TestsFailed:
		return "tests-failed"
	case TestsErrored:
		return "tests-errored"
	case CoverageRegressed:
		return "coverage-regressed"
	case UniverseDrifted:
		return "path-universe-drifted"
	case Incomplete:
		return "incomplete"
	}
	return "unknown"
}

// Config drives one change evaluation.
type Config struct {
	// Before and After build the pre- and post-change networks (the
	// in-house simulator step of §7.1: both are *computed* states).
	Before func() (*netmodel.Network, error)
	After  func() (*netmodel.Network, error)
	// Suite is the test suite to run on both states.
	Suite testkit.Suite
	// RegressionEpsilon is the per-device coverage drop tolerated
	// before flagging (default 0.01).
	RegressionEpsilon float64
	// DriftThreshold is the tolerated relative path-universe change.
	// Zero selects the default (0.2); a negative value disables the
	// drift guard while still reporting path-universe sizes and drift.
	// (SkipPathUniverse disables the counting itself.)
	DriftThreshold float64
	// SkipPathUniverse disables path-universe counting (it is the
	// expensive step; §8 engineers run it daily, not per change).
	SkipPathUniverse bool
	// PathBudget caps path enumeration (0 = unlimited).
	PathBudget int
	// Limits bounds the BDD engine for each evaluated state (the zero
	// value is unlimited). A tripped budget surfaces as an error
	// wrapping bdd.ErrBudgetExceeded with verdict Incomplete. With
	// Workers > 1 the same limits also govern each shard (MaxOps split
	// across workers; see internal/sharded).
	Limits bdd.Limits
	// Workers is the suite parallelism per evaluated state: when > 1,
	// the suite partitions across that many clones of the built network
	// (internal/sharded); 0 or 1 evaluates sequentially. Results and
	// metrics are identical either way — only wall-clock time changes.
	Workers int
	// Metrics, when set, turns on instrumentation: Run builds a span
	// tree (Result.Profile) whose stage durations and BDD counter deltas
	// also land in this registry. When the context already carries a
	// span (obs.ContextWithSpan), Run nests under it — and that span's
	// registry wins — so a service or CLI owns the root. Nil with no
	// span in the context means zero instrumentation overhead.
	Metrics *obs.Registry
}

// Result is a change-evaluation report. On error it is still returned
// with whatever phases completed — partial results are the point of the
// degradation model.
type Result struct {
	Verdict Verdict

	// Results are the post-change test outcomes (pass, fail, or
	// errored — see testkit.Result.Status).
	Results []testkit.Result
	// BeforeCoverage and AfterCoverage are the headline metrics of the
	// suite on each state.
	BeforeCoverage report.Metrics
	AfterCoverage  report.Metrics
	// Regressions are devices whose coverage dropped.
	Regressions []report.Regression
	// PathsBefore/PathsAfter are path-universe sizes (0 when skipped).
	PathsBefore, PathsAfter int
	// PathsTruncated reports that PathBudget (or cancellation) clipped
	// enumeration on at least one side. Truncated counts make the drift
	// ratio meaningless, so the drift guard is suppressed and DriftNote
	// says why.
	PathsTruncated bool
	// Drift is the relative path-universe change.
	Drift        float64
	DriftFlagged bool
	// DriftNote explains a suppressed or disabled drift guard ("" when
	// the guard ran normally).
	DriftNote string
	// Profile is the run's span tree (nil when uninstrumented). Render
	// with obs.WriteFlame; every span is closed even on a degraded run.
	Profile *obs.Span
}

// Run evaluates a change. The context is honored between phases and —
// through the BDD engine's watched context — inside symbolic work: a
// cancelled ctx makes Run return promptly with ctx.Err() and a partial
// Result (never nil) whose verdict is Incomplete.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	res := &Result{Verdict: Incomplete}
	if cfg.Before == nil || cfg.After == nil {
		return res, fmt.Errorf("pipeline: Before and After builders are required")
	}
	if cfg.RegressionEpsilon == 0 {
		cfg.RegressionEpsilon = 0.01
	}
	if cfg.DriftThreshold == 0 {
		cfg.DriftThreshold = 0.2
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Instrumentation root: nest under a span already in the context (a
	// service request span, a CLI -profile root), else create one when a
	// registry was configured, else stay nil — and every obs call below
	// is a no-op.
	var sp *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		sp = parent.Child("pipeline.run")
	} else if cfg.Metrics != nil {
		sp = obs.NewRoot("pipeline.run", cfg.Metrics)
	}
	defer sp.End()
	res.Profile = sp

	evaluate := func(name string, build func() (*netmodel.Network, error)) ([]testkit.Result, *report.Snapshot, bool, error) {
		stage := sp.Child(name)
		defer stage.End()
		bsp := stage.Child("pipeline.build")
		net, err := build()
		if err != nil {
			bsp.End()
			return nil, nil, false, err
		}
		net.ComputeMatchSets()
		bsp.EndStage()
		// Budgets and cancellation apply from here on: the network is
		// built (its match sets are the baseline node population), and
		// everything after this point is a guarded stage of the engine —
		// a budget blown anywhere in one comes back as a typed error.
		eng := engine.New(net, engine.Config{Workers: cfg.Workers, Limits: cfg.Limits})
		// This state's BDD movement reaches the registry even when a
		// stage aborts.
		defer eng.SettleStats(sp.Registry())
		ctx := obs.ContextWithSpan(ctx, stage)
		results, err := eng.Run(ctx, "pipeline.suite", cfg.Suite, cfg.Workers, nil)
		if err != nil {
			return results, nil, false, err
		}
		var (
			snap      *report.Snapshot
			truncated bool
		)
		err = eng.View(ctx, "pipeline.coverage", func(cov *core.Coverage) { snap = report.TakeSnapshot(cov) })
		if err == nil && !cfg.SkipPathUniverse {
			err = eng.View(ctx, "pipeline.paths", func(*core.Coverage) {
				n, complete := dataplane.EnumeratePaths(ctx, net, dataplane.EdgeStarts(net),
					dataplane.EnumOpts{MaxPaths: cfg.PathBudget}, func(dataplane.Path) bool { return true })
				snap.PathUniverse = n
				truncated = !complete
			})
		}
		return results, snap, truncated, err
	}

	_, beforeSnap, beforeTrunc, err := evaluate("before", cfg.Before)
	if err != nil {
		return res, fmt.Errorf("pipeline: before state: %w", err)
	}
	res.BeforeCoverage = beforeSnap.Total
	res.PathsBefore = beforeSnap.PathUniverse

	afterResults, afterSnap, afterTrunc, err := evaluate("after", cfg.After)
	res.Results = afterResults
	if err != nil {
		return res, fmt.Errorf("pipeline: after state: %w", err)
	}
	res.AfterCoverage = afterSnap.Total
	res.Regressions = report.CompareSnapshots(beforeSnap, afterSnap, cfg.RegressionEpsilon)
	res.PathsAfter = afterSnap.PathUniverse
	res.PathsTruncated = beforeTrunc || afterTrunc

	if !cfg.SkipPathUniverse {
		res.Drift, res.DriftFlagged = report.PathUniverseDrift(beforeSnap.PathUniverse, afterSnap.PathUniverse, cfg.DriftThreshold)
		switch {
		case cfg.DriftThreshold < 0: // guard disabled: report drift, never flag
			res.DriftFlagged = false
			res.DriftNote = "drift guard disabled by configuration"
		case res.PathsTruncated:
			// Clipped counts make the ratio meaningless: a real universe
			// change could hide entirely inside the truncated tail, so
			// the §5.2 guard cannot clear the change either way.
			res.DriftFlagged = false
			res.DriftNote = "drift guard suppressed: path enumeration truncated by budget"
		}
	}

	switch {
	case anyFailed(afterResults):
		res.Verdict = TestsFailed
	case anyErrored(afterResults):
		res.Verdict = TestsErrored
	case len(res.Regressions) > 0:
		res.Verdict = CoverageRegressed
	case res.DriftFlagged:
		res.Verdict = UniverseDrifted
	default:
		res.Verdict = Safe
	}
	return res, nil
}

func anyFailed(results []testkit.Result) bool {
	for _, r := range results {
		if len(r.Failures) > 0 {
			return true
		}
	}
	return false
}

func anyErrored(results []testkit.Result) bool {
	for _, r := range results {
		if r.Errored() {
			return true
		}
	}
	return false
}
