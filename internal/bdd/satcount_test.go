package bdd

import (
	"math/big"
	"math/rand"
	"testing"
)

// refSatCount is a straightforward all-big.Int model counter used as
// the oracle for the hybrid implementation.
func refSatCount(m *Manager, a Node) *big.Int {
	memo := map[Node]*big.Int{}
	var rec func(Node) *big.Int
	rec = func(n Node) *big.Int {
		if n == False {
			return big.NewInt(0)
		}
		if n == True {
			return big.NewInt(1)
		}
		if c, ok := memo[n]; ok {
			return c
		}
		nd := m.nodes[n]
		c := new(big.Int).Lsh(rec(nd.low), uint(m.level(nd.low)-nd.level-1))
		t := new(big.Int).Lsh(rec(nd.high), uint(m.level(nd.high)-nd.level-1))
		c.Add(c, t)
		memo[n] = c
		return c
	}
	return new(big.Int).Lsh(rec(a), uint(m.level(a)))
}

// cubeOf returns the conjunction of the first k variables — a set of
// exactly 2^(numVars-k) assignments.
func cubeOf(m *Manager, k int) Node {
	vars := make([]int, k)
	for i := range vars {
		vars[i] = i
	}
	return m.Cube(vars)
}

// TestSatCountCrossover exercises the uint64/128-bit fast path and the
// big.Int fallback on either side of both overflow boundaries. In a
// 200-variable universe, a k-variable cube counts 2^(200-k): k=136
// lands exactly on 2^64, k=72 exactly on 2^128 (the first wide count).
func TestSatCountCrossover(t *testing.T) {
	const nv = 200
	m := New(nv)
	for _, k := range []int{140, 137, 136, 135, 100, 73, 72, 71, 40, 1} {
		c := cubeOf(m, k)
		want := new(big.Int).Lsh(big.NewInt(1), uint(nv-k))
		if got := m.SatCount(c); got.Cmp(want) != 0 {
			t.Errorf("k=%d: SatCount = %v, want 2^%d", k, got, nv-k)
		}
		// The memo state must match the width: counts up to 2^127
		// stay narrow; 2^128 itself no longer fits in 128 bits and
		// goes to the big side table.
		// (The root's own memo is level-adjusted: a cube's top node
		// is at level 0, so its stored count equals the full count.)
		if nv-k < 128 {
			if m.satState[c] != satNarrow {
				t.Errorf("k=%d: state = %d, want narrow", k, m.satState[c])
			}
		} else if m.satState[c] != satWide {
			t.Errorf("k=%d: state = %d, want wide", k, m.satState[c])
		}
	}
}

// TestSatCountHybridMatchesReference compares the hybrid counter to an
// all-big.Int oracle on random functions in a universe wide enough that
// narrow and wide nodes coexist in one DAG.
func TestSatCountHybridMatchesReference(t *testing.T) {
	const nv = 160
	m := New(nv)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		a := randomNode(m, rng, 10)
		got := m.SatCount(a)
		want := refSatCount(m, a)
		if got.Cmp(want) != 0 {
			t.Fatalf("trial %d: SatCount = %v, want %v", trial, got, want)
		}
	}
}

// TestSatCountReturnsFreshValue pins the API contract: the returned
// big.Int is the caller's to mutate, so mutating it must not corrupt
// the memo.
func TestSatCountReturnsFreshValue(t *testing.T) {
	m := New(300)
	c := cubeOf(m, 10) // 2^290: wide path, memoized as big.Int
	first := m.SatCount(c)
	first.SetInt64(-1)
	if again := m.SatCount(c); again.Sign() <= 0 {
		t.Fatalf("memo corrupted by caller mutation: %v", again)
	}
	n := New(100)
	cn := cubeOf(n, 10) // narrow path
	f := n.SatCount(cn)
	f.SetInt64(-1)
	if again := n.SatCount(cn); again.Sign() <= 0 {
		t.Fatalf("narrow memo corrupted by caller mutation: %v", again)
	}
}

// TestSatCountAllocsSteadyState: the V4-width fast path must not
// allocate per node — only the O(1) big.Int wrap of the result.
func TestSatCountAllocsSteadyState(t *testing.T) {
	m := New(104) // IPv4 5-tuple width
	rng := rand.New(rand.NewSource(31))
	a := randomNode(m, rng, 40)
	m.SatCount(a) // fill the memo
	allocs := testing.AllocsPerRun(100, func() { m.SatCount(a) })
	if allocs > 4 {
		t.Errorf("SatCount steady state: %v allocs/op, want <= 4", allocs)
	}
}

func TestShl128(t *testing.T) {
	cases := []struct {
		hi, lo uint64
		s      uint
		rhi    uint64
		rlo    uint64
		ok     bool
	}{
		{0, 1, 0, 0, 1, true},
		{0, 1, 63, 0, 1 << 63, true},
		{0, 1, 64, 1, 0, true},
		{0, 1, 127, 1 << 63, 0, true},
		{0, 1, 128, 0, 0, false},
		{0, 0, 500, 0, 0, true},
		{1, 0, 64, 0, 0, false},
		{0, 3, 127, 0, 0, false},
		{0, 1 << 63, 1, 1, 0, true},
		{1, 1, 63, 1<<63 | (1 >> 1), 1 << 63, true},
	}
	for _, c := range cases {
		rhi, rlo, ok := shl128(c.hi, c.lo, c.s)
		if ok != c.ok || (ok && (rhi != c.rhi || rlo != c.rlo)) {
			t.Errorf("shl128(%d,%d,%d) = %d,%d,%v want %d,%d,%v",
				c.hi, c.lo, c.s, rhi, rlo, ok, c.rhi, c.rlo, c.ok)
		}
	}
}

func TestBigFromU128(t *testing.T) {
	want := new(big.Int).Lsh(big.NewInt(0x1234), 64)
	want.Or(want, new(big.Int).SetUint64(0xfedcba9876543210))
	if got := bigFromU128(0x1234, 0xfedcba9876543210); got.Cmp(want) != 0 {
		t.Errorf("bigFromU128 = %v, want %v", got, want)
	}
	if got := bigFromU128(0, 7); got.Cmp(big.NewInt(7)) != 0 {
		t.Errorf("bigFromU128(0,7) = %v", got)
	}
}

func BenchmarkBDDAnd(b *testing.B) {
	m := New(104)
	rng := rand.New(rand.NewSource(1))
	xs := make([]Node, 128)
	for i := range xs {
		xs[i] = randomNode(m, rng, 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.And(xs[i%128], xs[(i+17)%128])
	}
}

func BenchmarkBDDOr(b *testing.B) {
	m := New(104)
	rng := rand.New(rand.NewSource(2))
	xs := make([]Node, 128)
	for i := range xs {
		xs[i] = randomNode(m, rng, 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Or(xs[i%128], xs[(i+17)%128])
	}
}

func BenchmarkBDDDiff(b *testing.B) {
	m := New(104)
	rng := rand.New(rand.NewSource(3))
	xs := make([]Node, 128)
	for i := range xs {
		xs[i] = randomNode(m, rng, 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Diff(xs[i%128], xs[(i+17)%128])
	}
}

// BenchmarkBDDSatCount measures the hybrid counter on the IPv4-width
// fast path (steady state: memo warm, allocations are the O(1) result
// wrap only).
func BenchmarkBDDSatCount(b *testing.B) {
	m := New(104)
	rng := rand.New(rand.NewSource(4))
	xs := make([]Node, 64)
	for i := range xs {
		xs[i] = randomNode(m, rng, 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SatCount(xs[i%64])
	}
}

// BenchmarkBDDSatCountV6 is the wide-set fallback (296-bit universe).
func BenchmarkBDDSatCountV6(b *testing.B) {
	m := New(296)
	rng := rand.New(rand.NewSource(5))
	xs := make([]Node, 64)
	for i := range xs {
		xs[i] = randomNode(m, rng, 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SatCount(xs[i%64])
	}
}
