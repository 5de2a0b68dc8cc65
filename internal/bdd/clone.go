// Snapshot cloning: a replica manager as a bulk memory copy.
//
// The flat storage layout (bdd.go, table.go, satcount.go) makes a
// Manager a handful of dense slices plus a few scalars, so a replica is
// a memcpy, not a semantic rebuild: Clone copies the node array, the
// unique table, the op cache, and the SatFraction memo slice-for-slice
// in O(size) with bit-identical semantics. Every node keeps its index,
// so node references held outside the manager (hdr.Set values, trace
// roots, cube nodes) remain valid in the clone, and the unique table's
// deterministic resize points (a function of the node count) are
// preserved exactly — a clone grows the same way the original would.
//
// What is deliberately NOT snapshotted: the watched context. A clone is
// a fresh evaluation space whose owner watches its own context (the
// original's belongs to the original's run, not the copy). Observability
// counters restart at zero for the same reason.
package bdd

// Clone returns an independent copy of the manager in O(size): same
// nodes at the same indices, same unique-table and op-cache layout,
// same SatFraction memo. Mutating either manager afterwards never
// affects the other — the clone is copy-on-write at the granularity of
// whole tables, and both sides only ever append.
//
// Clone reads the manager without mutating it, so concurrent Clone
// calls on a quiescent manager are safe (building a replica pool clones
// the canonical space from several goroutines at once).
func (m *Manager) Clone() *Manager {
	return &Manager{
		numVars:  m.numVars,
		nodes:    append([]node(nil), m.nodes...),
		uniq:     append([]uniqSlot(nil), m.uniq...),
		uniqUsed: m.uniqUsed,
		cache:    append([]cacheEntry(nil), m.cache...),
		satFrac:  append([]float64(nil), m.satFrac...),
		satFracN: m.satFracN,
		origin:   m,
		originN:  len(m.nodes),
	}
}
