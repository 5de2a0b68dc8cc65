package faults

import (
	"context"
	"fmt"
	"net/netip"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
)

// Chaos tests: injectable misbehaving tests for exercising the
// degradation model end to end. Where the fault operators above mutate
// the *network* to validate that coverage finds forwarding bugs, these
// mutate the *test suite* to validate that the evaluation core survives
// hostile tests — panics, hangs, and resource exhaustion — the way
// testkit.Suite.Run and engine.EvaluateChange promise: one errored
// Result, the rest of the suite unharmed.

// PanicTest is a test that panics partway through. Suite.Run's panic
// isolation must convert it into a single errored Result (Err set,
// prefix "panic:") without aborting the suite.
type PanicTest struct {
	// Message is the panic value ("chaos: injected panic" when empty).
	Message string
	// Checks counts assertions "evaluated" before the panic, so reports
	// show the test died mid-flight rather than never starting.
	Checks int
}

// Name implements testkit.Test.
func (PanicTest) Name() string { return "ChaosPanic" }

// Kind implements testkit.Test.
func (PanicTest) Kind() testkit.Kind { return testkit.StateInspection }

// Run implements testkit.Test by panicking.
func (t PanicTest) Run(*netmodel.Network, core.Tracker) testkit.Result {
	msg := t.Message
	if msg == "" {
		msg = "chaos: injected panic"
	}
	panic(msg)
}

// HangTest blocks until its context is cancelled (or Release is closed,
// for tests that want to un-hang it). It implements testkit.ContextTest,
// so Suite.Run hands it the run context: a daemon -run-timeout or a
// caller's deadline converts the hang into an errored Result instead of
// a stuck suite.
type HangTest struct {
	// Release unblocks the test without cancellation, yielding a pass
	// (nil means only cancellation ends the hang).
	Release <-chan struct{}
}

// Name implements testkit.Test.
func (HangTest) Name() string { return "ChaosHang" }

// Kind implements testkit.Test.
func (HangTest) Kind() testkit.Kind { return testkit.StateInspection }

// Run implements testkit.Test. Without a context the hang can only end
// via Release; callers that might cancel must run it through Suite.Run
// (which prefers RunContext).
func (t HangTest) Run(net *netmodel.Network, tracker core.Tracker) testkit.Result {
	return t.RunContext(context.Background(), net, tracker)
}

// RunContext implements testkit.ContextTest.
func (t HangTest) RunContext(ctx context.Context, _ *netmodel.Network, _ core.Tracker) testkit.Result {
	res := testkit.Result{Name: t.Name(), Kind: t.Kind()}
	select {
	case <-t.Release:
		res.Checks = 1
	case <-ctx.Done():
		res.Err = fmt.Sprintf("hang aborted: %v", ctx.Err())
	}
	return res
}

// BudgetTest burns BDD engine resources by building many distinct
// symbolic sets — the unbounded-symbolic-work failure mode that
// bdd.Limits exists for. Under a tight bdd.Limits the allocation trips
// ErrBudgetExceeded: the suite's per-test isolation converts the trip
// into an errored Result, and — because a tripped budget poisons the
// manager — the next charged engine operation in the same evaluation
// phase re-raises it to the enclosing bdd.Guard, so the phase as a
// whole still reports the exhaustion.
type BudgetTest struct {
	// Iterations bounds the allocation (default 4096) so an *unlimited*
	// manager terminates too; each iteration interns a distinct
	// destination-IP singleton and unions it into a growing set.
	Iterations int
}

// Name implements testkit.Test.
func (BudgetTest) Name() string { return "ChaosBudget" }

// Kind implements testkit.Test.
func (BudgetTest) Kind() testkit.Kind { return testkit.StateInspection }

// Run implements testkit.Test.
func (t BudgetTest) Run(net *netmodel.Network, _ core.Tracker) testkit.Result {
	iters := t.Iterations
	if iters == 0 {
		iters = 4096
	}
	sp := net.Space
	acc := sp.Empty()
	for i := 0; i < iters; i++ {
		a := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		acc = acc.Union(sp.DstIP(a))
	}
	return testkit.Result{Name: t.Name(), Kind: t.Kind(), Checks: iters}
}

var (
	_ testkit.Test        = PanicTest{}
	_ testkit.ContextTest = HangTest{}
	_ testkit.Test        = BudgetTest{}
)
