package hdr

// Clone returns an O(size) snapshot of the space: a new Space over a new
// bdd.Manager holding the same nodes at the same indices (see
// bdd.Manager.Clone). Every node index taken from this space — Set
// values, trace roots, quantification cubes — denotes the same header
// set in the clone, so match sets can be carried into a worker replica
// by index instead of being re-derived from configuration.
//
// The clone is independent after the copy: growth on either side is
// invisible to the other. The watched context is deliberately not
// snapshotted — a clone's owner watches its own.
//
// Cloning a quiescent space is a pure read of it, so several clones may
// be taken concurrently as long as nothing mutates the original.
func (s *Space) Clone() *Space {
	c := *s
	c.m = s.m.Clone()
	return &c
}
