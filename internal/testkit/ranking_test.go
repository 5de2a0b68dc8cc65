package testkit

import (
	"context"
	"testing"

	"yardstick/internal/core"
)

func TestRankCandidates(t *testing.T) {
	rg := buildRegional(t)
	// Baseline: the original suite.
	base := core.NewTrace()
	Suite{DefaultRouteCheck{}, AggCanReachTorLoopback{}}.Run(context.Background(), rg.Net, base)

	candidates := []Test{
		ConnectedRouteCheck{},
		InternalRouteCheck{},
		DefaultRouteCheck{}, // redundant: zero gain
	}
	ranked := RankCandidates(context.Background(), rg.Net, base, candidates, core.Fractional)
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	// InternalRouteCheck covers far more rules than ConnectedRouteCheck.
	if ranked[0].Test.Name() != "InternalRouteCheck" {
		t.Errorf("top candidate = %s, want InternalRouteCheck", ranked[0].Test.Name())
	}
	// The redundant test has (near-)zero gain and ranks last.
	last := ranked[len(ranked)-1]
	if last.Test.Name() != "DefaultRouteCheck" || last.Gain > 1e-9 {
		t.Errorf("redundant test should rank last with zero gain: %+v", last.Gain)
	}
	// Gains are ordered and coverage values consistent.
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Gain > ranked[i-1].Gain {
			t.Error("ranking not sorted by gain")
		}
	}
	for _, r := range ranked {
		if !r.Result.Pass() {
			t.Errorf("%s failed during ranking", r.Test.Name())
		}
		if r.Coverage < r.Gain {
			t.Error("coverage should include the baseline")
		}
	}
	// The baseline trace must be untouched.
	baseCov := core.NewCoverage(rg.Net, base)
	internal := 0
	for _, rid := range core.UncoveredRules(baseCov, nil) {
		if rg.Net.Rule(rid).Origin == "internal" {
			internal++
		}
	}
	if internal == 0 {
		t.Error("baseline trace was mutated by ranking")
	}
}
