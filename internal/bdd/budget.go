// Resource budgets and cancellation for the BDD engine.
//
// BDD operations are deeply recursive, so threading an error return
// through every apply-loop frame would distort the whole engine. Instead
// the Manager converts budget exhaustion and context cancellation into a
// typed panic that unwinds the recursion in one step, and Guard recovers
// exactly that panic at the hdr/core boundary, turning it back into an
// error that wraps ErrBudgetExceeded (or the context's error). Any other
// panic is re-raised untouched.
//
// Once a *budget* trips, the manager is poisoned: the condition that
// tripped it (the node table or the cumulative op count) does not go away
// on its own, so every subsequent charged operation re-raises the same
// error deterministically until SetLimits installs a fresh budget. This
// guarantees that a budget blown inside an isolated test run resurfaces
// at the next guarded phase instead of silently producing a half-built
// result. Context cancellation does not poison: a new context (the next
// request, say) starts clean.
package bdd

import (
	"context"
	"errors"
	"fmt"
)

// ErrBudgetExceeded is wrapped by every error Guard returns for a tripped
// resource budget. Callers test for it with errors.Is.
var ErrBudgetExceeded = errors.New("bdd: resource budget exceeded")

// Limits bounds a Manager's resource consumption. The zero value means
// unlimited on both axes.
type Limits struct {
	// MaxNodes caps the total node table size (including the two
	// terminals). Exceeding it raises a budget panic from node creation.
	MaxNodes int
	// MaxOps caps the number of charged operations (cache consultations
	// in the apply loops) since the limits were installed.
	MaxOps int
}

// budgetPanic is the typed panic payload raised by charge* and recovered
// by Guard. Exported panics would invite recovery at the wrong layer.
type budgetPanic struct{ err error }

// String makes a foreign recover (e.g. a per-test isolation boundary)
// render the carried error instead of a bare struct dump.
func (b budgetPanic) String() string { return b.err.Error() }

// SetLimits installs l, clears any tripped (poisoned) budget state, and
// restarts the operation counter. Passing the zero Limits removes all
// budgets.
func (m *Manager) SetLimits(l Limits) {
	m.limits = l
	m.budgetErr = nil
	m.ops = 0
}

// BudgetErr reports whether the manager is poisoned by a tripped budget:
// it returns the error (wrapping ErrBudgetExceeded) that tripped, or nil.
// Callers that recover panics generically — a per-test isolation boundary,
// say — lose the typed budget panic in translation; inspecting BudgetErr
// after the fact recovers the run-level failure. SetLimits clears it.
func (m *Manager) BudgetErr() error { return m.budgetErr }

// WatchContext makes charged operations observe ctx: once ctx is done,
// the next charge check raises a cancellation panic (recovered by Guard
// into an error wrapping ctx.Err()). It returns a restore function that
// reinstates the previous watch; use it as
//
//	defer m.WatchContext(ctx)()
//
// Cancellation does not poison the manager — after restore, operations
// under a live context proceed normally.
func (m *Manager) WatchContext(ctx context.Context) (restore func()) {
	prev := m.ctx
	m.ctx = ctx
	return func() { m.ctx = prev }
}

// Guard runs fn and converts a budget or cancellation panic raised by
// this package into the error it carries; all other panics propagate.
// It is the designated recovery point at the hdr/core boundary: wrap
// each evaluation phase, not individual set operations.
func Guard(fn func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		bp, ok := r.(budgetPanic)
		if !ok {
			panic(r)
		}
		err = bp.err
	}()
	fn()
	return nil
}

// chargeOp accounts for one apply-loop step. It re-raises a poisoned
// budget, enforces MaxOps, and polls the watched context every 1024 ops
// (polling keeps the per-op cost negligible; cancellation latency is a
// few microseconds of BDD work).
func (m *Manager) chargeOp() {
	if m.budgetErr != nil {
		panic(budgetPanic{m.budgetErr})
	}
	m.ops++
	if m.limits.MaxOps > 0 && m.ops > uint64(m.limits.MaxOps) {
		m.trip(fmt.Errorf("op budget exceeded (%d ops > max %d): %w", m.ops, m.limits.MaxOps, ErrBudgetExceeded))
	}
	if m.ctx != nil && m.ops&1023 == 0 {
		if err := m.ctx.Err(); err != nil {
			panic(budgetPanic{fmt.Errorf("bdd: operation canceled: %w", err)})
		}
	}
}

// chargeNode enforces MaxNodes before a new node is appended.
func (m *Manager) chargeNode() {
	if m.budgetErr != nil {
		panic(budgetPanic{m.budgetErr})
	}
	if m.limits.MaxNodes > 0 && len(m.nodes) >= m.limits.MaxNodes {
		m.trip(fmt.Errorf("node budget exceeded (%d nodes at max %d): %w", len(m.nodes), m.limits.MaxNodes, ErrBudgetExceeded))
	}
}

// trip poisons the manager with err and raises it.
func (m *Manager) trip(err error) {
	m.budgetErr = err
	panic(budgetPanic{err})
}
