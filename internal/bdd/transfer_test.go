package bdd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// enumerate evaluates a on every assignment of its manager's universe,
// returning the truth table as a bit vector. Exact but exponential — test
// universes stay small.
func enumerate(m *Manager, a Node) []bool {
	n := m.NumVars()
	out := make([]bool, 1<<n)
	assign := make([]bool, n)
	for i := range out {
		for v := 0; v < n; v++ {
			assign[v] = i&(1<<v) != 0
		}
		out[i] = m.Eval(a, assign)
	}
	return out
}

// copyFrom imports one root from src into dst through a session of its
// own: the one-shot form of a Transfer.
func copyFrom(dst, src *Manager, n Node) Node { return dst.BeginTransfer(src).Copy(n) }

func TestCopyFromPreservesFunction(t *testing.T) {
	src := New(8)
	dst := New(8)
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		a := randomNode(src, rng, 8)
		c := copyFrom(dst, src, a)
		want := enumerate(src, a)
		got := enumerate(dst, c)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyFromCanonicalInDestination(t *testing.T) {
	src := New(6)
	dst := New(6)
	// Build the same function independently in both managers; the transfer
	// must land on the natively built node (hash-consing across origins).
	build := func(m *Manager) Node {
		return m.Or(m.And(m.Var(0), m.Var(2)), m.Diff(m.Var(4), m.Var(1)))
	}
	native := build(dst)
	copied := copyFrom(dst, src, build(src))
	if native != copied {
		t.Errorf("transferred node %d != natively built node %d", copied, native)
	}
}

func TestCopyFromTerminalsAndSelf(t *testing.T) {
	src := New(4)
	dst := New(4)
	if got := copyFrom(dst, src, False); got != False {
		t.Errorf("copyFrom(False) = %d", got)
	}
	if got := copyFrom(dst, src, True); got != True {
		t.Errorf("copyFrom(True) = %d", got)
	}
	a := src.And(src.Var(0), src.Var(1))
	if got := copyFrom(src, src, a); got != a {
		t.Errorf("self-copy changed node: %d != %d", got, a)
	}
}

func TestCopyFromMismatchedUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched variable counts")
		}
	}()
	copyFrom(New(4), New(5), True)
}

func TestCopyFromChargesDestinationBudget(t *testing.T) {
	src := New(16)
	rng := rand.New(rand.NewSource(7))
	a := randomNode(src, rng, 40)
	// The copy must charge more than the one op it is allowed.
	if nd := src.nodes[a]; a <= True || nd.low <= True && nd.high <= True {
		t.Fatalf("fixture too small: node %d reaches fewer than two decision nodes", a)
	}
	dst := New(16)
	srcOps := src.Stats().Ops
	restore := dst.WatchContext(cancelAtOp(dst, 1))
	err := Guard(func() { copyFrom(dst, src, a) })
	restore()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.Stats().Ops != srcOps {
		t.Error("the transfer charged the source's ops, want the destination's")
	}
	// Under a live context the transfer completes.
	var b Node
	if err := Guard(func() { b = copyFrom(dst, src, a) }); err != nil {
		t.Fatalf("transfer after the cancellation: %v", err)
	}
	if got := copyFrom(src, dst, b); got != a {
		t.Errorf("round trip after the cancellation landed on node %d, want %d", got, a)
	}
}
