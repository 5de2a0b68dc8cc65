// Cancellation for the BDD engine.
//
// BDD operations are deeply recursive, so threading an error return
// through every apply-loop frame would distort the whole engine. Instead
// the Manager converts context cancellation into a typed panic that
// unwinds the recursion in one step, and Guard recovers exactly that
// panic at the hdr/core boundary, turning it back into an error that
// wraps the context's error. Any other panic is re-raised untouched.
//
// Cancellation leaves the manager consistent: the panic is raised before
// the charged step touches anything, the nodes made before it stay
// (the table only grows, and they are canonical), and under a live
// context (the next request, say) operations proceed normally.
package bdd

import (
	"context"
	"fmt"
)

// cancelPanic is the typed panic payload raised by chargeOp and
// recovered by Guard. Exported panics would invite recovery at the wrong
// layer.
type cancelPanic struct{ err error }

// String makes a foreign recover (e.g. a per-test isolation boundary)
// render the carried error instead of a bare struct dump.
func (c cancelPanic) String() string { return c.err.Error() }

// WatchContext makes charged operations observe ctx: once ctx is done,
// the next charge check raises a cancellation panic (recovered by Guard
// into an error wrapping ctx.Err()). It returns a restore function that
// reinstates the previous watch; use it as
//
//	defer m.WatchContext(ctx)()
func (m *Manager) WatchContext(ctx context.Context) (restore func()) {
	prev := m.ctx
	m.ctx = ctx
	return func() { m.ctx = prev }
}

// Guard runs fn and converts a cancellation panic raised by this package
// into the error it carries; all other panics propagate. It is the
// designated recovery point at the hdr/core boundary: wrap each
// evaluation phase, not individual set operations.
func Guard(fn func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		cp, ok := r.(cancelPanic)
		if !ok {
			panic(r)
		}
		err = cp.err
	}()
	fn()
	return nil
}

// chargeOp accounts for one apply-loop step and polls the watched
// context every 1024 ops (polling keeps the per-op cost negligible;
// cancellation latency is a few microseconds of BDD work). The poll
// runs after the count moves, so a context that is done at the poll
// aborts the step whose charge brought the count to a multiple of 1024.
func (m *Manager) chargeOp() {
	m.ops++
	if m.ctx != nil && m.ops&1023 == 0 {
		if err := m.ctx.Err(); err != nil {
			panic(cancelPanic{fmt.Errorf("bdd: operation canceled: %w", err)})
		}
	}
}
