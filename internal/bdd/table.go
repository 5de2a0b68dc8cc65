// Flat-memory node storage: the open-addressed unique table and the
// direct-mapped operation cache.
//
// The unique table is the heart of hash consing — every mk goes through
// it — so its layout is the kernel's hottest data structure. Instead of
// a Go map (hashing interface machinery, bucket chains, tombstones) it
// is a power-of-two slice of 16-byte slots probed linearly. Each slot
// stores the full 64-bit hash next to the node index: the hash gives a
// one-word reject before touching the node array, and makes resizing a
// re-placement of (hash, node) pairs with no rehashing of triples.
// Slots are keyed by the (level, low, high) triple of the node they
// name; node index 0 (the False terminal, never interned) marks an
// empty slot. The table doubles when it passes 3/4 load, so probes stay
// short (expected O(1)) and growth cost is amortized over inserts.
//
// A resize can only be triggered by an insert, and the resize points
// are a deterministic function of the node count. Inserts never panic
// (cancellation is raised by chargeOp, before an apply step touches
// anything), so a cancelled operation cannot leave a half-rehashed
// table.
//
// The op cache is direct-mapped and sized by one fixed rule: it starts
// at minCacheSlots and doubles (re-placing live entries) whenever the
// node table outgrows it, up to maxCacheSlots. A cache comparable to the
// node count keeps the apply loops' memoization effective on large
// managers without burning megabytes on small ones. The sizing changes
// hit rates only, never a result.
package bdd

// uniqSlot is one slot of the open-addressed unique table.
type uniqSlot struct {
	hash uint64
	node Node // 0 (False, never interned) = empty slot
}

const (
	// initialUniqueSlots is the unique-table capacity at New. Power of two.
	initialUniqueSlots = 1 << 10
	// minCacheSlots is the op cache's size at New.
	minCacheSlots = 1 << 16
	// maxCacheSlots caps growth (24 B/slot: 1<<20 ≈ 24 MiB), reached
	// only once the node table itself is past a million nodes.
	maxCacheSlots = 1 << 20
)

// cacheSlotsFor is the op-cache sizing rule: start at minCacheSlots,
// double while the node count has reached the slot count, stop at
// maxCacheSlots.
func cacheSlotsFor(nodes int) int {
	n := minCacheSlots
	for n < maxCacheSlots && nodes >= n {
		n <<= 1
	}
	return n
}

// mk returns the canonical node (level, low, high), applying the two
// reduction rules: redundant tests collapse, and structurally equal
// nodes share storage. Lookup is a linear probe of the unique table;
// the stored hash rejects almost all foreign slots in one compare.
func (m *Manager) mk(level uint32, low, high Node) Node {
	if low == high {
		return low
	}
	h := mix(uint64(level), uint64(uint32(low)), uint64(uint32(high)))
	mask := uint64(len(m.uniq) - 1)
	i := h & mask
	for {
		s := &m.uniq[i]
		if s.node == 0 {
			break
		}
		if s.hash == h {
			nd := &m.nodes[s.node]
			if nd.level == level && nd.low == low && nd.high == high {
				return s.node
			}
		}
		i = (i + 1) & mask
	}
	return m.insert(i, h, level, low, high)
}

// insert appends a new node and files it in the unique table at the
// empty slot found by mk's probe (re-probed if the insert triggers a
// resize).
func (m *Manager) insert(slot, hash uint64, level uint32, low, high Node) Node {
	if (m.uniqUsed+1)*4 > len(m.uniq)*3 {
		m.growUnique()
		mask := uint64(len(m.uniq) - 1)
		slot = hash & mask
		for m.uniq[slot].node != 0 {
			slot = (slot + 1) & mask
		}
	}
	n := Node(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	m.uniq[slot] = uniqSlot{hash: hash, node: n}
	m.uniqUsed++
	m.maybeGrowCache()
	return n
}

// growUnique doubles the table and re-places every live slot by its
// stored hash. Placement is deterministic (slot order is scan order,
// probe order is hash order), so reruns fill identically.
func (m *Manager) growUnique() {
	m.uniqResizes++
	old := m.uniq
	m.uniq = make([]uniqSlot, len(old)*2)
	mask := uint64(len(m.uniq) - 1)
	for i := range old {
		s := old[i]
		if s.node == 0 {
			continue
		}
		j := s.hash & mask
		for m.uniq[j].node != 0 {
			j = (j + 1) & mask
		}
		m.uniq[j] = s
	}
}

// mix folds three words into a well-distributed 64-bit key
// (splitmix64-style finalizer).
func mix(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cacheEntry is one slot of the direct-mapped operation cache.
type cacheEntry struct {
	op      uint32
	a, b, c Node
	result  Node
}

// cacheHash computes the cache key for an apply step once; the apply
// loops pass it to both cacheLookup and cacheStore, so each step hashes
// a single time. Node indices are 31-bit, so op packs into the upper
// half of the first word.
func cacheHash(op uint32, a, b, c Node) uint64 {
	return mix(uint64(uint32(a))|uint64(op)<<32, uint64(uint32(b)), uint64(uint32(c)))
}

// cacheLookup consults the operation cache. Every apply-loop step
// passes through here, so it doubles as the op charge point. The
// slot index is the hash masked by the *current* cache size — h stays
// valid across a cache resize during recursion.
func (m *Manager) cacheLookup(h uint64, op uint32, a, b, c Node) (Node, bool) {
	m.chargeOp()
	slot := &m.cache[h&uint64(len(m.cache)-1)]
	if slot.op == op && slot.a == a && slot.b == b && slot.c == c {
		m.cacheHits++
		return slot.result, true
	}
	m.cacheMisses++
	return 0, false
}

func (m *Manager) cacheStore(h uint64, op uint32, a, b, c, result Node) {
	m.cache[h&uint64(len(m.cache)-1)] = cacheEntry{op: op, a: a, b: b, c: c, result: result}
}

// maybeGrowCache brings the op cache to the size cacheSlotsFor gives
// for the node count, one counted doubling at a time. Growth points are
// a deterministic function of the node count, and live entries are
// re-placed (not dropped), so a resize mid-computation only moves the
// memo — results and canonicity are unaffected.
func (m *Manager) maybeGrowCache() {
	if len(m.nodes) < len(m.cache) {
		return
	}
	for want := cacheSlotsFor(len(m.nodes)); len(m.cache) < want; {
		m.cacheResizes++
		old := m.cache
		m.cache = make([]cacheEntry, len(old)*2)
		mask := uint64(len(m.cache) - 1)
		for i := range old {
			e := &old[i]
			if e.op == 0 {
				continue
			}
			m.cache[cacheHash(e.op, e.a, e.b, e.c)&mask] = *e
		}
	}
}
