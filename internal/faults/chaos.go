package faults

import (
	"context"
	"fmt"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
)

// Chaos tests: injectable misbehaving tests for exercising the
// degradation model end to end. Where the fault operators above mutate
// the *network* to validate that coverage finds forwarding bugs, these
// mutate the *test suite* to validate that the evaluation core survives
// hostile tests — panics and hangs — the way
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

// CancelAtOp returns a context under which guarded work on m, once m
// watches it, completes k more charged ops and is cancelled at the next:
// how a test aborts a stage at a chosen point inside it. m polls a
// watched context only every 1024 ops, so the counter is first advanced
// with one-op walks until that op lands on a poll.
//
// Err reads m's op counter and nothing else, so the context may be
// polled wherever m may be read: by the goroutine driving m, or by
// replica workers while m waits for them. Its Done channel is nil, so a
// context derived from it with a cancel function never sees the
// cancellation; pass it to the call that watches it.
func CancelAtOp(m *bdd.Manager, k int) context.Context {
	for (m.Stats().Ops+uint64(k)+1)%1024 != 0 {
		m.Restrict(bdd.True, 0, 0, nil)
	}
	return opContext{context.Background(), m, m.Stats().Ops + uint64(k) + 1}
}

// opContext is CancelAtOp's context: done once m has counted target ops.
type opContext struct {
	context.Context
	m      *bdd.Manager
	target uint64
}

func (c opContext) Err() error {
	if c.m.Stats().Ops >= c.target {
		return context.Canceled
	}
	return nil
}

var (
	_ testkit.Test        = PanicTest{}
	_ testkit.ContextTest = HangTest{}
)
