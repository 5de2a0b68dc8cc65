package bdd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// buildPressure allocates fresh nodes, iters distinct minterms' worth;
// the cancellation tests run it under Guard.
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

// opContext is done once m has counted target ops; its Err reads m's
// counter and nothing else. faults.CancelAtOp is the same helper for the
// packages above this one.
type opContext struct {
	context.Context
	m      *Manager
	target uint64
}

func (c opContext) Err() error {
	if c.m.ops >= c.target {
		return context.Canceled
	}
	return nil
}

// cancelAtOp returns a context under which guarded work on m, once m
// watches it, completes k more charged ops and aborts at the next. m
// polls a watched context only every 1024 ops, so the counter is first
// advanced with one-op walks until that next op lands on a poll.
func cancelAtOp(m *Manager, k int) context.Context {
	for (m.ops+uint64(k)+1)%1024 != 0 {
		m.Restrict(True, 0, 0, nil)
	}
	return opContext{context.Background(), m, m.ops + uint64(k) + 1}
}

// TestCancelAtOpAbortsExactly pins the poll contract the abort tests of
// every package rely on: a watched context that turns done at op k of a
// fixed workload aborts it after exactly k completed ops — the charge of
// op k+1 raises — for every k the workload reaches, and leaves it whole
// past its last op.
func TestCancelAtOpAbortsExactly(t *testing.T) {
	work := func(m *Manager) { randomNode(m, rand.New(rand.NewSource(17)), 90) }
	whole := New(16)
	work(whole)
	total := int(whole.Stats().Ops)
	if total < 1024 {
		t.Fatalf("workload charges %d ops; want some k whose abort passes an earlier poll", total)
	}
	for k := 0; k <= total; k++ {
		m := New(16)
		ctx := cancelAtOp(m, k)
		base := m.Stats().Ops
		restore := m.WatchContext(ctx)
		err := Guard(func() { work(m) })
		restore()
		charged := int(m.Stats().Ops - base)
		if k == total {
			if err != nil || charged != total {
				t.Fatalf("k = %d, the whole workload: err = %v after %d ops", k, err, charged)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) || charged != k+1 {
			t.Fatalf("k = %d: err = %v after %d charged ops, want context.Canceled at op %d", k, err, charged, k+1)
		}
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
	// Cancellation leaves nothing behind: restore a live context and work again.
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
