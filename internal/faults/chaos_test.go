package faults

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

func smallNet(t *testing.T) *netmodel.Network {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rg.Net
}

func TestPanicTestIsIsolated(t *testing.T) {
	net := smallNet(t)
	suite := testkit.Suite{
		testkit.DefaultRouteCheck{},
		PanicTest{Message: "chaos: boom"},
		testkit.ConnectedRouteCheck{},
	}
	results := suite.Run(context.Background(), net, core.NewTrace())
	if len(results) != len(suite) {
		t.Fatalf("got %d results, want %d (suite must survive the panic)", len(results), len(suite))
	}
	var errored int
	for _, r := range results {
		if r.Errored() {
			errored++
			if r.Name != "ChaosPanic" {
				t.Errorf("errored result is %q, want ChaosPanic", r.Name)
			}
			if !strings.Contains(r.Err, "chaos: boom") || !strings.HasPrefix(r.Err, "panic:") {
				t.Errorf("Err = %q, want panic message", r.Err)
			}
			if r.Status() != "error" {
				t.Errorf("Status() = %q, want error", r.Status())
			}
		} else if !r.Pass() {
			t.Errorf("%s failed: %+v", r.Name, r.Failures)
		}
	}
	if errored != 1 {
		t.Fatalf("got %d errored results, want exactly 1", errored)
	}
}

func TestHangTestAbortsOnCancel(t *testing.T) {
	net := smallNet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	results := testkit.Suite{HangTest{}}.Run(ctx, net, core.Nop{})
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if !results[0].Errored() || !strings.Contains(results[0].Err, context.DeadlineExceeded.Error()) {
		t.Fatalf("result = %+v, want errored with deadline message", results[0])
	}
}

func TestHangTestReleasePasses(t *testing.T) {
	net := smallNet(t)
	release := make(chan struct{})
	close(release)
	results := testkit.Suite{HangTest{Release: release}}.Run(context.Background(), net, core.Nop{})
	if len(results) != 1 || !results[0].Pass() {
		t.Fatalf("results = %+v, want one pass", results)
	}
}

func TestBudgetTestTripsNodeLimit(t *testing.T) {
	net := smallNet(t)
	sp := net.Space
	sp.SetLimits(bdd.Limits{MaxNodes: sp.Manager().Size() + 64})
	var results []testkit.Result
	err := bdd.Guard(func() {
		results = testkit.Suite{BudgetTest{}}.Run(context.Background(), net, core.Nop{})
		// Post-suite symbolic work, as engine.EvaluateChange's coverage
		// phase does: the poisoned manager re-raises the trip here, where
		// the Guard converts it to an error.
		sp.DstPrefix(netip.MustParsePrefix("203.0.113.0/24"))
	})
	if !errors.Is(err, bdd.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// The trip inside the test surfaced as an errored result first.
	if len(results) != 1 || !results[0].Errored() || !strings.Contains(results[0].Err, "budget") {
		t.Fatalf("results = %+v, want one budget-errored result", results)
	}
	// SetLimits un-poisons: the same work succeeds afterwards.
	sp.SetLimits(bdd.Limits{})
	if err := bdd.Guard(func() { sp.DstPrefix(netip.MustParsePrefix("203.0.113.0/24")) }); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

// TestBudgetTestCompletesUnlimited pins the other side: without limits
// the chaos test terminates on its iteration bound and passes.
func TestBudgetTestCompletesUnlimited(t *testing.T) {
	net := smallNet(t)
	results := testkit.Suite{BudgetTest{Iterations: 256}}.Run(context.Background(), net, core.Nop{})
	if len(results) != 1 || !results[0].Pass() {
		t.Fatalf("results = %+v, want one pass", results)
	}
}

func TestSuiteRunHonorsPreCancelledContext(t *testing.T) {
	net := smallNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := testkit.Suite{testkit.DefaultRouteCheck{}, testkit.ConnectedRouteCheck{}}.Run(ctx, net, core.NewTrace())
	if len(results) != 0 {
		t.Fatalf("got %d results on a cancelled context, want 0", len(results))
	}
}
