// Cross-manager node transfer.
//
// Parallel analyses use one Manager per goroutine (managers are not safe
// for concurrent use) and then need to merge results into a canonical
// manager. Serializing through cubes (AllSat + re-intersection) is exact
// but can blow up exponentially for sets with many disjoint cubes.
// A Transfer instead walks the source DAG once and rebuilds it node by
// node in the destination, so the transfer is linear in the *shared*
// size of the source representation and lands on the destination's
// canonical nodes directly.
//
// Two costs used to dominate merges and are gone:
//
//   - The memo. A one-shot copy allocated a dense source-sized memo per
//     root; a trace merge copies one root per location, so the memo
//     allocation was paid tens of times per run and was, by itself, most
//     of the parallel engine's bytes/op. A Transfer session holds one
//     memo across every Copy it performs (sound because the source is
//     quiescent for the session and the destination only appends).
//
//   - The shared prefix. When one manager is a Clone of the other,
//     every node below the clone point is index-identical in both (see
//     clone.go) and needs no copying at all: the walk stops at shared
//     nodes, the memo only spans the nodes created after the clone, and
//     a merge costs O(new nodes), not O(universe).
package bdd

import "fmt"

// Transfer is a reusable copy session from one manager into another.
// Create one with BeginTransfer and call Copy once per root; the memo
// persists across calls, so copying many roots (a trace's per-location
// sets) shares the walk.
//
// The session reads src and writes dst, so the caller must hold both
// managers single-threaded for its whole lifetime, and src must not
// grow while the session is live (the usual discipline: workers have
// finished before their results are merged). Charged work — one op per
// distinct newly copied source node — is counted by dst and polls dst's
// watched context, not src's.
type Transfer struct {
	src, dst *Manager
	// shared is the index below which src and dst nodes are identical:
	// the clone point when one manager is a clone of the other, or just
	// the two terminals. Copy returns such nodes unchanged.
	shared Node
	// memo maps src node (offset by shared) to its dst image; 0 = unset
	// (a copy result is never a terminal — src nodes are reduced, so
	// they denote non-constant functions).
	memo []Node
}

// BeginTransfer starts a transfer session importing nodes from src.
// Both managers must have the same variable count (the universes must
// agree). When src is a Clone of m (or vice versa), the session skips
// the shared node prefix automatically.
func (m *Manager) BeginTransfer(src *Manager) *Transfer {
	if src == nil {
		panic("bdd: BeginTransfer from nil manager")
	}
	if src.numVars != m.numVars {
		panic(fmt.Sprintf("bdd: BeginTransfer across universes (%d vars -> %d vars)", src.numVars, m.numVars))
	}
	shared := Node(2) // terminals are shared by every pair of managers
	switch {
	case src == m:
		shared = Node(len(src.nodes))
	case src.origin == m:
		// src was cloned from m at originN nodes; everything below that
		// is index-identical. m can only have grown since.
		shared = Node(src.originN)
	case m.origin == src:
		// m was cloned from src; src nodes below the clone point are
		// index-identical in m. Nodes src grew afterwards are not.
		shared = Node(m.originN)
	}
	return &Transfer{
		src:    src,
		dst:    m,
		shared: shared,
		memo:   make([]Node, len(src.nodes)-int(shared)),
	}
}

// Copy imports the boolean function rooted at n in the session's source
// and returns the equivalent node in the destination. The copy is a
// memoized recursive walk rebuilt through the destination's unique
// table, so the result is reduced and hash-consed like any native node —
// semantic equality by node index holds between transferred and locally
// built sets.
func (t *Transfer) Copy(n Node) Node {
	if n < 0 || int(n) >= len(t.src.nodes) {
		panic(fmt.Sprintf("bdd: transfer of invalid node %d", n))
	}
	return t.copyRec(n)
}

func (t *Transfer) copyRec(n Node) Node {
	if n < t.shared {
		// Terminals, or the index-identical prefix of a clone pair.
		return n
	}
	if r := t.memo[n-t.shared]; r != 0 {
		return r
	}
	// One charged op per distinct source node keeps the op count and the
	// watched context authoritative over merge work too.
	t.dst.chargeOp()
	nd := t.src.nodes[n]
	low := t.copyRec(nd.low)
	high := t.copyRec(nd.high)
	r := t.dst.mk(nd.level, low, high)
	t.memo[n-t.shared] = r
	return r
}
