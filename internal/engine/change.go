package engine

import (
	"context"
	"fmt"
	"slices"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/testkit"
)

// Verdict summarizes a change evaluation.
type Verdict uint8

// Verdicts. Human oversight is expected for everything but VerdictSafe
// (§7.1: "Human oversight is needed here because it is possible that
// tests may fail as a result of modeling error or transient failures").
const (
	// VerdictSafe: all tests pass, no coverage regressions, path
	// universe stable.
	VerdictSafe Verdict = iota
	// VerdictTestsFailed: at least one test failed on the post-change
	// state.
	VerdictTestsFailed
	// VerdictTestsErrored: no test failed, but at least one terminated
	// abnormally (a panic or cancellation) — its assertions never
	// finished, so the run vouches for less than the suite promises.
	VerdictTestsErrored
	// VerdictCoverageRegressed: tests pass but the suite now exercises
	// less of the network than before — the verdict is weaker than it
	// looks.
	VerdictCoverageRegressed
	// VerdictUniverseDrifted: tests pass but the path universe changed
	// dramatically; the network's structure may have changed in ways
	// the suite does not see.
	VerdictUniverseDrifted
	// VerdictIncomplete: the evaluation itself was cut short (a state
	// failed to build, or the context ended); the result holds whatever
	// phases finished, and EvaluateChange also returns the error.
	VerdictIncomplete
)

func (v Verdict) String() string {
	switch v {
	case VerdictSafe:
		return "safe"
	case VerdictTestsFailed:
		return "tests-failed"
	case VerdictTestsErrored:
		return "tests-errored"
	case VerdictCoverageRegressed:
		return "coverage-regressed"
	case VerdictUniverseDrifted:
		return "path-universe-drifted"
	case VerdictIncomplete:
		return "incomplete"
	}
	return "unknown"
}

// ChangeConfig drives one change evaluation.
type ChangeConfig struct {
	// Before and After build the pre- and post-change networks (the
	// in-house simulator step of §7.1: both are *computed* states).
	Before func() (*netmodel.Network, error)
	After  func() (*netmodel.Network, error)
	// Suite is the test suite to run on both states.
	Suite testkit.Suite
	// RegressionEpsilon is the per-device coverage drop tolerated
	// before flagging; zero flags any drop.
	RegressionEpsilon float64
	// DriftThreshold is the tolerated relative path-universe change;
	// zero flags any change. A negative value disables the drift guard
	// while still reporting path-universe sizes and drift.
	// (SkipPathUniverse disables the counting itself.)
	DriftThreshold float64
	// SkipPathUniverse disables path-universe counting (it is the
	// expensive step; §8 engineers run it daily, not per change).
	SkipPathUniverse bool
	// PathBudget caps path enumeration (0 = unlimited).
	PathBudget int
}

// ChangeResult is a change-evaluation report. On error it is still
// returned with whatever phases completed — partial results are the
// point of the degradation model.
type ChangeResult struct {
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
}

// EvaluateChange is the §7.1 testing pipeline: the network undergoes a
// change, a simulator computes the forwarding state that will result
// (cfg.Before and cfg.After), the suite checks that state, and the
// verdict is augmented with per-device coverage regressions against the
// pre-change state and the path-universe drift guard of §5.2. Each state
// is a sequential Engine of its own.
//
// A span in ctx gets a pipeline.run child with before and after stages
// beneath it. The context is honored between phases and, through the
// watched context, inside symbolic work: a cancelled ctx returns
// promptly with ctx.Err(). A panicking test and cancellation each
// degrade into a partial result, never nil, whose verdict is
// VerdictTestsErrored or VerdictIncomplete.
func EvaluateChange(ctx context.Context, cfg ChangeConfig) (*ChangeResult, error) {
	res := &ChangeResult{Verdict: VerdictIncomplete}
	if cfg.Before == nil || cfg.After == nil {
		return res, fmt.Errorf("pipeline: Before and After builders are required")
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	sp := obs.SpanFromContext(ctx).Child("pipeline.run")
	defer sp.End()

	evaluate := func(name string, build func() (*netmodel.Network, error)) ([]testkit.Result, *report.Snapshot, bool, error) {
		stage := sp.Child(name)
		defer stage.End()
		bsp := stage.Child("pipeline.build")
		net, err := build()
		if err != nil {
			bsp.End()
			return nil, nil, false, err
		}
		eng := New(net, Config{})
		bsp.EndStage()
		// This state's BDD movement reaches the registry even when a
		// stage aborts.
		defer eng.SettleStats(sp.Registry())
		ctx := obs.ContextWithSpan(ctx, stage)
		results, err := eng.Run(ctx, "pipeline.suite", cfg.Suite, 1, nil)
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
	case slices.ContainsFunc(afterResults, func(r testkit.Result) bool { return len(r.Failures) > 0 }):
		res.Verdict = VerdictTestsFailed
	case slices.ContainsFunc(afterResults, testkit.Result.Errored):
		res.Verdict = VerdictTestsErrored
	case len(res.Regressions) > 0:
		res.Verdict = VerdictCoverageRegressed
	case res.DriftFlagged:
		res.Verdict = VerdictUniverseDrifted
	default:
		res.Verdict = VerdictSafe
	}
	return res, nil
}
