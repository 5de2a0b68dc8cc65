package bdd

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// cubeOf returns the conjunction of the first k variables — a set of
// exactly 2^(numVars-k) assignments.
func cubeOf(m *Manager, k int) Node {
	vars := make([]int, k)
	for i := range vars {
		vars[i] = i
	}
	return m.Cube(vars)
}

// TestSatCountCrossover counts on either side of the 64- and 128-bit
// boundaries. In a 200-variable universe, a k-variable cube counts
// 2^(200-k): k=136 lands exactly on 2^64, k=72 exactly on 2^128.
func TestSatCountCrossover(t *testing.T) {
	const nv = 200
	m := New(nv)
	for _, k := range []int{140, 137, 136, 135, 100, 73, 72, 71, 40, 1} {
		c := cubeOf(m, k)
		want := new(big.Int).Lsh(big.NewInt(1), uint(nv-k))
		if got := m.SatCount(c); got.Cmp(want) != 0 {
			t.Errorf("k=%d: SatCount = %v, want 2^%d", k, got, nv-k)
		}
	}
}

// TestSatCountReturnsFreshValue pins the API contract: the returned
// big.Int is the caller's to mutate, so mutating it must not change the
// next count.
func TestSatCountReturnsFreshValue(t *testing.T) {
	m := New(300)
	c := cubeOf(m, 10) // 2^290
	first := m.SatCount(c)
	first.SetInt64(-1)
	if again := m.SatCount(c); again.Sign() <= 0 {
		t.Fatalf("2^290 count changed by caller mutation: %v", again)
	}
	n := New(100)
	cn := cubeOf(n, 10) // 2^90
	f := n.SatCount(cn)
	f.SetInt64(-1)
	if again := n.SatCount(cn); again.Sign() <= 0 {
		t.Fatalf("2^90 count changed by caller mutation: %v", again)
	}
}

// TestCountAgreesAcrossCloneAndArena: a replica counts as its original
// does, whether made by Clone (which copies the warm SatFraction memo)
// or by an arena round trip (which starts with none), for a set wider
// than 128 bits and a narrow one.
func TestCountAgreesAcrossCloneAndArena(t *testing.T) {
	m := New(200)
	type want struct {
		count *big.Int
		frac  float64
	}
	sets := map[Node]want{
		m.Var(0):       {new(big.Int).Lsh(big.NewInt(1), 199), 0.5},
		cubeOf(m, 190): {big.NewInt(1 << 10), math.Ldexp(1, -190)},
	}
	for a := range sets {
		m.SatFraction(a)
	}
	d, err := DecodeArena(m.AppendArena(nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Manager{"original": m, "clone": m.Clone(), "arena": d} {
		for a, w := range sets {
			if got := r.SatCount(a); got.Cmp(w.count) != 0 {
				t.Errorf("%s: SatCount(%d) = %v, want %v", name, a, got, w.count)
			}
			if got := r.SatFraction(a); got != w.frac {
				t.Errorf("%s: SatFraction(%d) = %g, want %g", name, a, got, w.frac)
			}
		}
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

// BenchmarkBDDSatCount measures exact counting at the IPv4 5-tuple
// width (104 variables). Each call walks the whole set.
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

// BenchmarkBDDSatCountV6 is the same at the IPv6 width (296 variables).
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
