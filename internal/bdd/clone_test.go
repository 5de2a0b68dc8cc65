package bdd

import (
	"context"
	"math/rand"
	"testing"
)

// TestCloneBitIdentical checks the headline contract: a clone holds the
// same nodes at the same indices with the same table geometry, so node
// references taken before the clone stay valid in it.
func TestCloneBitIdentical(t *testing.T) {
	m := New(12)
	rng := rand.New(rand.NewSource(3))
	roots := make([]Node, 16)
	for i := range roots {
		roots[i] = randomNode(m, rng, 30)
	}
	c := m.Clone()

	if c.Size() != m.Size() {
		t.Fatalf("clone size %d != original %d", c.Size(), m.Size())
	}
	for i := range m.nodes {
		if m.nodes[i] != c.nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, m.nodes[i], c.nodes[i])
		}
	}
	if len(c.uniq) != len(m.uniq) || c.uniqUsed != m.uniqUsed {
		t.Fatalf("unique table geometry differs: %d/%d vs %d/%d",
			c.uniqUsed, len(c.uniq), m.uniqUsed, len(m.uniq))
	}
	for _, r := range roots {
		want := enumerate(m, r)
		got := enumerate(c, r)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("root %d: truth tables differ at %d", r, i)
			}
		}
	}
	// Identical functions built natively in the clone must land on the
	// original's node indices (the unique table carried over).
	for _, r := range roots {
		if r == False || r == True {
			continue
		}
		nd := c.nodes[r]
		if got := c.mk(nd.level, nd.low, nd.high); got != r {
			t.Fatalf("clone mk of existing triple returned %d, want %d", got, r)
		}
	}
}

// TestCloneIndependence proves a worker's ops never leak into the
// canonical space and vice versa: growth on either side is invisible to
// the other.
func TestCloneIndependence(t *testing.T) {
	m := New(10)
	rng := rand.New(rand.NewSource(9))
	base := randomNode(m, rng, 25)
	sizeBefore := m.Size()
	statsBefore := m.Stats()

	c := m.Clone()
	crng := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		c.And(base, randomNode(c, crng, 20))
	}
	if c.Size() <= sizeBefore {
		t.Fatalf("clone did not grow (size %d)", c.Size())
	}
	if m.Size() != sizeBefore {
		t.Fatalf("canonical grew from %d to %d through clone ops", sizeBefore, m.Size())
	}
	if got := m.Stats(); got != statsBefore {
		t.Fatalf("canonical stats moved: %+v -> %+v", statsBefore, got)
	}

	// And the other direction: canonical growth is invisible to the clone.
	cSize := c.Size()
	randomNode(m, rng, 25)
	if c.Size() != cSize {
		t.Fatalf("clone grew from %d to %d through canonical ops", cSize, c.Size())
	}
}

// TestCloneDropsBudgetState: the watched context and the op counter are
// deliberately not snapshotted — a clone is a fresh evaluation space.
func TestCloneDropsBudgetState(t *testing.T) {
	m := New(8)
	m.And(m.Var(0), m.Var(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.WatchContext(ctx)

	c := m.Clone()
	if c.Stats().Ops != 0 {
		t.Errorf("clone inherited op counter %d", c.Stats().Ops)
	}
	// The clone must evaluate freely, across polls, although the
	// original watches a dead context.
	if err := Guard(func() { buildPressure(c, 1024) }); err != nil {
		t.Errorf("clone op failed: %v", err)
	}
	if c.Stats().Ops < 1024 {
		t.Errorf("clone charged %d ops, want past the first poll", c.Stats().Ops)
	}
}

// TestCloneTransferSkipsSharedPrefix: a transfer between a clone and its
// origin recognizes the index-identical prefix, so pre-clone nodes come
// back unchanged and post-clone nodes land canonically.
func TestCloneTransferSkipsSharedPrefix(t *testing.T) {
	m := New(10)
	rng := rand.New(rand.NewSource(4))
	old := randomNode(m, rng, 30)

	c := m.Clone()
	crng := rand.New(rand.NewSource(5))
	fresh := c.And(old, randomNode(c, crng, 20))

	tr := m.BeginTransfer(c)
	if got := tr.Copy(old); got != old {
		t.Errorf("shared-prefix node %d transferred to %d", old, got)
	}
	opsBefore := m.Stats().Ops
	newNodes := uint64(c.Size() - m.Size()) // post-clone growth in c
	moved := tr.Copy(fresh)
	want := enumerate(c, fresh)
	got := enumerate(m, moved)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("transferred function differs at assignment %d", i)
		}
	}
	// Work charged must be bounded by the nodes created after the clone,
	// not the whole universe.
	if ops := m.Stats().Ops - opsBefore; ops > newNodes {
		t.Errorf("transfer charged %d ops for %d post-clone nodes", ops, newNodes)
	}

	// The reverse direction shares the same prefix.
	back := c.BeginTransfer(m)
	if got := back.Copy(old); got != old {
		t.Errorf("reverse transfer moved shared node %d to %d", old, got)
	}
}
