// Package bdd implements reduced ordered binary decision diagrams (BDDs).
//
// BDDs canonically represent boolean functions over a fixed, ordered set of
// variables. Yardstick uses them to encode packet sets: a packet is an
// assignment to the header bits, and a set of packets is the boolean
// function that is true exactly on the packets in the set (see
// internal/hdr). The design follows the classic hash-consed unique-table
// construction: every node is unique, so semantic equality of functions is
// pointer (index) equality, and set equality checks are O(1).
//
// The storage layout is flat: nodes live in one slice, the unique table is
// an open-addressed power-of-two array (see table.go), the SatFraction memo
// is a node-indexed dense array (see satcount.go), and the operation cache
// is a direct-mapped array that grows with the node table. No hot-path
// structure is a Go map; SatCount, which is off the evaluation path,
// allocates its big.Int values per call.
//
// A Manager owns all nodes. Managers are not safe for concurrent use;
// analyses that need parallelism should use one Manager per goroutine.
// Nodes are never garbage collected — the working set of a dataplane
// analysis is bounded by the forwarding state, and callers can observe
// growth with Size and start fresh with a new Manager.
package bdd

import (
	"context"
	"fmt"
	"math"
)

// Node is a reference to a BDD node owned by a Manager. The zero Node is
// invalid; the constant terminals are False (0) and True (1).
type Node int32

// Terminal nodes. They belong to every Manager.
const (
	False Node = 0
	True  Node = 1
)

// node is the internal representation: a decision on variable level with
// low (variable=0) and high (variable=1) branches.
type node struct {
	level uint32
	low   Node
	high  Node
}

// opcodes for the operation cache. The op-cache hash mixes the opcode,
// so renumbering them moves slot placement and with it the op and miss
// counts a run reports (never a result).
const (
	opAnd    = 1
	opOr     = 2
	opDiff   = 4
	opNot    = 5
	opExists = 6
)

// Manager owns a universe of BDD nodes over a fixed number of variables.
type Manager struct {
	numVars int
	nodes   []node

	// Open-addressed unique table (see table.go): power-of-two slot
	// array, linear probing, stored hashes, 3/4 load-factor doubling.
	uniq     []uniqSlot
	uniqUsed int

	// Direct-mapped operation cache, sized by cacheSlotsFor (table.go):
	// doubles as the node table grows, up to a fixed cap.
	cache []cacheEntry

	// SatFraction memo (see satcount.go): a node-indexed dense array
	// grown lazily to the node table, and its count of filled entries.
	satFrac  []float64 // -1 = unset
	satFracN int

	// Cancellation (see cancel.go): ctx, when watched, is polled from
	// chargeOp.
	ctx context.Context

	// Observability counters (see Stats): charged apply-loop steps,
	// op-cache hits/misses and table-doubling events.
	ops          uint64
	cacheHits    uint64
	cacheMisses  uint64
	uniqResizes  uint64
	cacheResizes uint64

	// Clone lineage (see clone.go): the manager this one was cloned
	// from and the node count at clone time. Nodes below originN are
	// index-identical in both managers forever (nodes are never removed
	// or rewritten), which lets cross-manager transfers skip the shared
	// prefix.
	origin  *Manager
	originN int
}

// New returns a Manager over numVars boolean variables, ordered by index:
// variable 0 is tested first (top of the diagram).
func New(numVars int) *Manager {
	if numVars < 0 || numVars > 1<<20 {
		panic(fmt.Sprintf("bdd: invalid variable count %d", numVars))
	}
	return &Manager{
		numVars: numVars,
		// Terminal nodes occupy indices 0 and 1. Their level is one
		// past the last variable so ordering invariants hold.
		nodes: []node{
			{level: uint32(numVars)},
			{level: uint32(numVars)},
		},
		uniq:     make([]uniqSlot, initialUniqueSlots),
		cache:    make([]cacheEntry, minCacheSlots),
		satFrac:  []float64{0, 1},
		satFracN: 2,
	}
}

// NumVars returns the number of variables in the manager's universe.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the total number of allocated nodes, including the two
// terminals.
func (m *Manager) Size() int { return len(m.nodes) }

// Stats reports manager health for observability: allocated nodes,
// unique-table geometry, the SatFraction memo's size. Analyses that watch
// Nodes grow without bound should start a fresh Manager (nodes are never
// garbage collected). The cache and op counters explain a slow run: a
// low hit rate, or more Ops than the same work charged before.
type Stats struct {
	Nodes          int
	UniqueEntries  int
	SatFracEntries int
	// UniqueSlots is the unique table's capacity; UniqueLoad is
	// UniqueEntries/UniqueSlots, kept below 0.75 by resizing.
	UniqueSlots int
	UniqueLoad  float64
	// CacheSlots is the op cache's current size (it grows with the node
	// table up to a fixed cap).
	CacheSlots int
	// PeakNodes is the high-water node count. Nodes are never removed,
	// so it always equals Nodes.
	PeakNodes int
	// Ops counts charged apply-loop steps since construction.
	Ops uint64
	// CacheHits and CacheMisses count op-cache consultations.
	CacheHits   uint64
	CacheMisses uint64
	// UniqueResizes and CacheResizes count table-doubling events since
	// construction — a resize storm explains a latency spike better than
	// any average.
	UniqueResizes uint64
	CacheResizes  uint64
}

// Stats returns current counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Nodes:          len(m.nodes),
		UniqueEntries:  m.uniqUsed,
		SatFracEntries: m.satFracN,
		UniqueSlots:    len(m.uniq),
		UniqueLoad:     float64(m.uniqUsed) / float64(len(m.uniq)),
		CacheSlots:     len(m.cache),
		PeakNodes:      len(m.nodes),
		Ops:            m.ops,
		CacheHits:      m.cacheHits,
		CacheMisses:    m.cacheMisses,
		UniqueResizes:  m.uniqResizes,
		CacheResizes:   m.cacheResizes,
	}
}

// Delta returns the counter movement from prev to s — the per-stage
// numbers a span records. The counters only grow, so they subtract;
// gauge-like fields (Nodes, PeakNodes, table geometry) carry the current
// value.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.Ops -= prev.Ops
	d.CacheHits -= prev.CacheHits
	d.CacheMisses -= prev.CacheMisses
	d.UniqueResizes -= prev.UniqueResizes
	d.CacheResizes -= prev.CacheResizes
	return d
}

// level returns the decision level of n.
func (m *Manager) level(n Node) uint32 { return m.nodes[n].level }

// Var returns the function that is true iff variable v is 1.
func (m *Manager) Var(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(uint32(v), False, True)
}

// NVar returns the function that is true iff variable v is 0.
func (m *Manager) NVar(v int) Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(uint32(v), True, False)
}

// Literals returns the conjunction that constrains variable first+i to
// vals[i] for every i: a prefix, an exact field value, a whole packet.
// The chain is built bottom-up straight into the unique table, one node
// per level — no intermediate conjunction exists, so nothing goes
// through the op cache. Each level is charged as one op, so the op count
// and a watched context still see the work.
func (m *Manager) Literals(first int, vals []bool) Node {
	if first < 0 || first+len(vals) > m.numVars {
		panic(fmt.Sprintf("bdd: variables [%d,%d) out of range [0,%d)", first, first+len(vals), m.numVars))
	}
	n := True
	for i := len(vals) - 1; i >= 0; i-- {
		m.chargeOp()
		if vals[i] {
			n = m.mk(uint32(first+i), False, n)
		} else {
			n = m.mk(uint32(first+i), n, False)
		}
	}
	return n
}

// MakeNode returns the node that tests variable v and takes low when it
// is 0 and high when it is 1. Both branches must test only variables
// below v, so a walk that builds a diagram bottom-up calls it once per
// node, straight into the unique table: no apply step runs and the op
// cache is not consulted. Each call is charged as one op, so the op
// count and a watched context still see the work. A branch testing v or a
// variable above it panics.
func (m *Manager) MakeNode(v int, low, high Node) Node {
	if v < 0 || v >= m.numVars || m.level(low) <= uint32(v) || m.level(high) <= uint32(v) {
		panic(fmt.Sprintf("bdd: node on variable %d over branches at levels %d and %d", v, m.level(low), m.level(high)))
	}
	m.chargeOp()
	return m.mk(uint32(v), low, high)
}

// Restrict returns the cofactor of a with variable first+i fixed to bit i
// of bits for every i < width, bits read most significant first (bit 0 is
// the top bit of bits[0]): the prefix Literals would build, applied as an
// assignment instead of a conjunction. When a tests no variable above
// first, that cofactor is a node a already reaches, so it is found by
// following low/high edges: no node is created and the op cache is not
// consulted. The call is charged as one op, so the op count and a
// watched context still see it. A node of a testing a variable above first
// panics.
func (m *Manager) Restrict(a Node, first, width int, bits []byte) Node {
	if first < 0 || width < 0 || first+width > m.numVars || width > 8*len(bits) {
		panic(fmt.Sprintf("bdd: restriction of variables [%d,%d) by %d bytes out of range [0,%d)", first, first+width, len(bits), m.numVars))
	}
	m.chargeOp()
	end := uint32(first + width)
	for a > True {
		nd := m.nodes[a]
		if nd.level >= end {
			break
		}
		i := int(nd.level) - first
		if i < 0 {
			panic(fmt.Sprintf("bdd: restriction from variable %d of a node testing variable %d", first, nd.level))
		}
		if bits[i>>3]>>(7-i&7)&1 == 1 {
			a = nd.high
		} else {
			a = nd.low
		}
	}
	return a
}

// And returns the conjunction a ∧ b.
func (m *Manager) And(a, b Node) Node {
	switch {
	case a == b:
		return a
	case a == False || b == False:
		return False
	case a == True:
		return b
	case b == True:
		return a
	}
	if a > b {
		a, b = b, a
	}
	h := cacheHash(opAnd, a, b, 0)
	if r, ok := m.cacheLookup(h, opAnd, a, b, 0); ok {
		return r
	}
	al, ah, bl, bh, level := m.cofactors(a, b)
	r := m.mk(level, m.And(al, bl), m.And(ah, bh))
	m.cacheStore(h, opAnd, a, b, 0, r)
	return r
}

// Or returns the disjunction a ∨ b.
func (m *Manager) Or(a, b Node) Node {
	switch {
	case a == b:
		return a
	case a == True || b == True:
		return True
	case a == False:
		return b
	case b == False:
		return a
	}
	if a > b {
		a, b = b, a
	}
	h := cacheHash(opOr, a, b, 0)
	if r, ok := m.cacheLookup(h, opOr, a, b, 0); ok {
		return r
	}
	al, ah, bl, bh, level := m.cofactors(a, b)
	r := m.mk(level, m.Or(al, bl), m.Or(ah, bh))
	m.cacheStore(h, opOr, a, b, 0, r)
	return r
}

// Diff returns the difference a ∧ ¬b.
func (m *Manager) Diff(a, b Node) Node {
	switch {
	case a == b || a == False:
		return False
	case b == False:
		return a
	case b == True:
		return False
	case a == True:
		return m.Not(b)
	}
	h := cacheHash(opDiff, a, b, 0)
	if r, ok := m.cacheLookup(h, opDiff, a, b, 0); ok {
		return r
	}
	al, ah, bl, bh, level := m.cofactors(a, b)
	r := m.mk(level, m.Diff(al, bl), m.Diff(ah, bh))
	m.cacheStore(h, opDiff, a, b, 0, r)
	return r
}

// Not returns the complement ¬a.
func (m *Manager) Not(a Node) Node {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	h := cacheHash(opNot, a, 0, 0)
	if r, ok := m.cacheLookup(h, opNot, a, 0, 0); ok {
		return r
	}
	nd := m.nodes[a]
	r := m.mk(nd.level, m.Not(nd.low), m.Not(nd.high))
	m.cacheStore(h, opNot, a, 0, 0, r)
	return r
}

// cofactors returns the co-factors of a and b with respect to the smaller
// of their top levels, plus that level.
func (m *Manager) cofactors(a, b Node) (al, ah, bl, bh Node, level uint32) {
	la, lb := m.level(a), m.level(b)
	level = la
	if lb < level {
		level = lb
	}
	al, ah = m.cofactorAt(a, level)
	bl, bh = m.cofactorAt(b, level)
	return
}

// cofactorAt returns the co-factors of n with respect to level. If n's top
// variable is below level, n is independent of it and both co-factors are n.
func (m *Manager) cofactorAt(n Node, level uint32) (low, high Node) {
	nd := m.nodes[n]
	if nd.level != level {
		return n, n
	}
	return nd.low, nd.high
}

// ExistsCube existentially quantifies away the variables of a positive
// cube (a conjunction of variables, e.g. built with Cube): the result is
// true on an assignment iff some setting of those variables makes a true.
func (m *Manager) ExistsCube(a, cube Node) Node {
	if a == False || a == True || cube == True {
		return a
	}
	// Skip cube variables above a's level.
	for cube != True && m.level(cube) < m.level(a) {
		cube = m.nodes[cube].high
	}
	if cube == True {
		return a
	}
	h := cacheHash(opExists, a, cube, 0)
	if r, ok := m.cacheLookup(h, opExists, a, cube, 0); ok {
		return r
	}
	nd := m.nodes[a]
	var r Node
	if nd.level == m.level(cube) {
		// Quantify this variable: OR the branches.
		low := m.ExistsCube(nd.low, m.nodes[cube].high)
		high := m.ExistsCube(nd.high, m.nodes[cube].high)
		r = m.Or(low, high)
	} else {
		low := m.ExistsCube(nd.low, cube)
		high := m.ExistsCube(nd.high, cube)
		r = m.mk(nd.level, low, high)
	}
	m.cacheStore(h, opExists, a, cube, 0, r)
	return r
}

// Cube returns the conjunction of the given variables (each set to 1).
func (m *Manager) Cube(vars []int) Node {
	r := True
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		if v < 0 || v >= m.numVars {
			panic(fmt.Sprintf("bdd: variable %d out of range", v))
		}
		r = m.And(r, m.Var(v))
	}
	return r
}

// AnySat returns one satisfying assignment of a as a full-width assignment
// (len = NumVars); unconstrained variables are reported as false. The
// second result is false when a is unsatisfiable.
func (m *Manager) AnySat(a Node) ([]bool, bool) {
	if a == False {
		return nil, false
	}
	assign := make([]bool, m.numVars)
	for a != True {
		nd := m.nodes[a]
		if nd.low != False {
			a = nd.low
		} else {
			assign[nd.level] = true
			a = nd.high
		}
	}
	return assign, true
}

// AllSat invokes fn for every satisfying cube of a. A cube is reported as
// a slice of ternary values: 0 (variable is 0), 1 (variable is 1),
// 2 (don't care). The slice is reused between calls; callers must copy it
// to retain it. fn returning false stops the iteration early.
func (m *Manager) AllSat(a Node, fn func(cube []byte) bool) {
	cube := make([]byte, m.numVars)
	for i := range cube {
		cube[i] = 2
	}
	m.allSatRec(a, cube, fn)
}

func (m *Manager) allSatRec(a Node, cube []byte, fn func([]byte) bool) bool {
	if a == False {
		return true
	}
	if a == True {
		return fn(cube)
	}
	nd := m.nodes[a]
	cube[nd.level] = 0
	if !m.allSatRec(nd.low, cube, fn) {
		cube[nd.level] = 2
		return false
	}
	cube[nd.level] = 1
	if !m.allSatRec(nd.high, cube, fn) {
		cube[nd.level] = 2
		return false
	}
	cube[nd.level] = 2
	return true
}

// Eval evaluates a under a full assignment.
func (m *Manager) Eval(a Node, assign []bool) bool {
	if len(assign) != m.numVars {
		panic(fmt.Sprintf("bdd: Eval assignment length %d, want %d", len(assign), m.numVars))
	}
	for a != False && a != True {
		nd := m.nodes[a]
		if assign[nd.level] {
			a = nd.high
		} else {
			a = nd.low
		}
	}
	return a == True
}

// SatFractionOf is a convenience returning the fraction of b's assignments
// that also satisfy a, i.e. |a∧b| / |b|. Returns 0 when b is empty.
func (m *Manager) SatFractionOf(a, b Node) float64 {
	fb := m.SatFraction(b)
	if fb == 0 {
		return 0
	}
	f := m.SatFraction(m.And(a, b)) / fb
	// Guard against float rounding pushing the ratio out of [0,1].
	return math.Min(1, math.Max(0, f))
}
