package bdd

import (
	"context"
	"errors"
	"testing"
)

// buildPressure allocates fresh nodes until the budget trips or the cap
// is reached; it runs under Guard in every test that uses it.
func buildPressure(m *Manager, iters int) {
	acc := False
	for i := 0; i < iters; i++ {
		// Distinct minterms over the low 20 variables: each union adds
		// fresh nodes to the table.
		cube := True
		for v := 19; v >= 0; v-- {
			if i>>(v)&1 == 1 {
				cube = m.mk(uint32(v), False, cube)
			} else {
				cube = m.mk(uint32(v), cube, False)
			}
		}
		acc = m.Or(acc, cube)
	}
}

func TestMaxNodesTripsErrBudgetExceeded(t *testing.T) {
	m := New(32)
	m.SetLimits(Limits{MaxNodes: 200})
	err := Guard(func() { buildPressure(m, 1<<16) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if m.Size() > 200 {
		t.Errorf("node table grew past the budget: %d nodes", m.Size())
	}
}

func TestMaxOpsTripsErrBudgetExceeded(t *testing.T) {
	m := New(32)
	m.SetLimits(Limits{MaxOps: 50})
	err := Guard(func() { buildPressure(m, 1<<16) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestTrippedBudgetPoisonsUntilReset(t *testing.T) {
	m := New(32)
	m.SetLimits(Limits{MaxNodes: 64})
	if err := Guard(func() { buildPressure(m, 1<<16) }); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("first trip: err = %v", err)
	}
	// Any further charged work re-raises the same budget error.
	err := Guard(func() { m.And(m.Var(30), m.Var(31)) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("poisoned manager: err = %v, want ErrBudgetExceeded", err)
	}
	// SetLimits clears the poison.
	m.SetLimits(Limits{})
	if err := Guard(func() { m.And(m.Var(30), m.Var(31)) }); err != nil {
		t.Fatalf("after reset: err = %v", err)
	}
}

func TestWatchContextCancelsWork(t *testing.T) {
	m := New(32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer m.WatchContext(ctx)()
	err := Guard(func() { buildPressure(m, 1<<16) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must not poison: restore a live context and work again.
	m.WatchContext(context.Background())
	if err := Guard(func() { buildPressure(m, 64) }); err != nil {
		t.Fatalf("after cancel: err = %v", err)
	}
}

func TestGuardPassesThroughForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "not ours" {
			t.Fatalf("recover() = %v, want the original panic", r)
		}
	}()
	_ = Guard(func() { panic("not ours") })
}

func TestStatsCountersAdvance(t *testing.T) {
	m := New(32)
	buildPressure(m, 256)
	s := m.Stats()
	if s.CacheMisses == 0 {
		t.Error("expected cache misses after fresh work")
	}
	if s.Ops == 0 {
		t.Error("expected charged ops after fresh work")
	}
	if s.PeakNodes < s.Nodes {
		t.Errorf("peak %d < live nodes %d", s.PeakNodes, s.Nodes)
	}
	// Repeating the identical work should now hit the cache.
	before := m.Stats().CacheHits
	buildPressure(m, 256)
	if m.Stats().CacheHits <= before {
		t.Error("expected cache hits on repeated identical work")
	}
}
