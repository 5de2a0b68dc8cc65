package testkit

import (
	"context"
	"sort"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
)

// RankedCandidate is one candidate test with its marginal coverage gain
// over a baseline trace.
type RankedCandidate struct {
	Test Test
	// Index is the candidate's position in the input slice (tests are
	// identified positionally: dynamic test types may hold funcs or
	// slices and are not comparable).
	Index int
	// Gain is the increase in the chosen metric when the candidate's
	// coverage is added to the baseline.
	Gain float64
	// Coverage is the metric value with the candidate included.
	Coverage float64
	// Result is the candidate's own assertion outcome (it still runs as
	// a real test).
	Result Result
}

// RankCandidates orders candidate tests by how much rule coverage each
// would add on top of the baseline trace — the paper's §7.2 guidance to
// "focus one's efforts on the most productive kind of test development:
// the creation of new tests that provably improve coverage". Candidates
// are evaluated independently (each against the same baseline), so the
// ranking identifies the single best next test; apply it and re-rank to
// build a suite greedily. The baseline trace is not modified.
// Candidates run under the same panic isolation as Suite.Run: an
// erroring candidate ranks with its partial gain instead of aborting
// the ranking. A done context stops early, returning the candidates
// ranked so far.
func RankCandidates(ctx context.Context, net *netmodel.Network, base *core.Trace, candidates []Test, kind core.AggKind) []RankedCandidate {
	baseCov := core.NewCoverage(net, base)
	baseline := core.RuleCoverage(baseCov, nil, kind)

	out := make([]RankedCandidate, 0, len(candidates))
	for i, t := range candidates {
		if ctx.Err() != nil {
			break
		}
		trial := core.NewTrace()
		trial.Merge(base)
		res := runIsolated(ctx, t, net, trial)
		cov := core.NewCoverage(net, trial)
		v := core.RuleCoverage(cov, nil, kind)
		out = append(out, RankedCandidate{
			Test:     t,
			Index:    i,
			Gain:     v - baseline,
			Coverage: v,
			Result:   res,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Gain > out[j].Gain })
	return out
}
