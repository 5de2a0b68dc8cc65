package difftest

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	if !Empty().IsEmpty() {
		t.Error("Empty not empty")
	}
	if Full().Count() != 1<<32 {
		t.Errorf("Full count = %d", Full().Count())
	}
	if FromRange(5, 4).Count() != 0 {
		t.Error("inverted range should be empty")
	}
	p := FromPrefix(netip.MustParsePrefix("10.0.0.0/8"))
	if p.Count() != 1<<24 {
		t.Errorf("10/8 count = %d", p.Count())
	}
	if !p.ContainsAddr(netip.MustParseAddr("10.1.2.3")) {
		t.Error("10/8 should contain 10.1.2.3")
	}
	if p.ContainsAddr(netip.MustParseAddr("11.0.0.0")) {
		t.Error("10/8 should not contain 11.0.0.0")
	}
}

func TestCanonicalMerging(t *testing.T) {
	// Adjacent and overlapping ranges collapse.
	a := FromRange(0, 9).Union(FromRange(10, 19)).Union(FromRange(15, 30))
	if got := a.Ranges(); len(got) != 1 || got[0] != (Range{0, 30}) {
		t.Errorf("ranges = %v", got)
	}
	// Adjacent across MaxUint32 boundary handled.
	b := FromRange(^uint32(0)-1, ^uint32(0)).Union(FromRange(0, 5))
	if b.Count() != 8 {
		t.Errorf("count = %d", b.Count())
	}
}

func TestNegate(t *testing.T) {
	if !Empty().Negate().Equal(Full()) || !Full().Negate().IsEmpty() {
		t.Fatal("negate of trivial sets wrong")
	}
	a := FromRange(10, 20)
	n := a.Negate()
	if n.Count() != 1<<32-11 {
		t.Errorf("negate count = %d", n.Count())
	}
	if !n.Negate().Equal(a) {
		t.Error("double negation")
	}
	// Negation of set touching both extremes.
	e := FromRange(0, 5).Union(FromRange(^uint32(0)-5, ^uint32(0)))
	if e.Negate().Count() != 1<<32-12 {
		t.Errorf("extremes negate count = %d", e.Negate().Count())
	}
}

func randSet(rng *rand.Rand) Set {
	s := Empty()
	for i := rng.Intn(5); i >= 0; i-- {
		lo := rng.Uint32()
		width := rng.Uint32() % (1 << 28)
		hi := lo + width
		if hi < lo {
			hi = ^uint32(0)
		}
		s = s.Union(FromRange(lo, hi))
	}
	return s
}

func TestAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		a, b := randSet(rng), randSet(rng)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		// De Morgan.
		if !a.Union(b).Negate().Equal(a.Negate().Intersect(b.Negate())) {
			return false
		}
		// Inclusion-exclusion.
		if a.Union(b).Count()+a.Intersect(b).Count() != a.Count()+b.Count() {
			return false
		}
		// Diff identity.
		if !a.Diff(b).Equal(a.Intersect(b.Negate())) {
			return false
		}
		// Canonical invariants: sorted, disjoint, non-adjacent.
		rs := a.Union(b).Ranges()
		for i := 1; i < len(rs); i++ {
			if rs[i].Lo <= rs[i-1].Hi || rs[i].Lo == rs[i-1].Hi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMembershipBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		a, b := randSet(rng), randSet(rng)
		union, inter, diff := a.Union(b), a.Intersect(b), a.Diff(b)
		for probe := 0; probe < 200; probe++ {
			x := rng.Uint32()
			ia, ib := a.Contains(x), b.Contains(x)
			if union.Contains(x) != (ia || ib) {
				t.Fatalf("union membership wrong at %d", x)
			}
			if inter.Contains(x) != (ia && ib) {
				t.Fatalf("intersect membership wrong at %d", x)
			}
			if diff.Contains(x) != (ia && !ib) {
				t.Fatalf("diff membership wrong at %d", x)
			}
			if a.Negate().Contains(x) == ia {
				t.Fatalf("negate membership wrong at %d", x)
			}
		}
	}
}

func TestOverlapsAndString(t *testing.T) {
	a := FromPrefix(netip.MustParsePrefix("10.0.0.0/8"))
	b := FromPrefix(netip.MustParsePrefix("10.1.0.0/16"))
	c := FromPrefix(netip.MustParsePrefix("192.168.0.0/16"))
	if !a.Overlaps(b) || a.Overlaps(c) {
		t.Error("overlaps wrong")
	}
	if Empty().String() != "∅" || a.String() == "" {
		t.Error("string rendering")
	}
}

func TestPrefixesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		a := randSet(rng)
		prefixes := a.Prefixes()
		back := Empty()
		for _, p := range prefixes {
			back = back.Union(FromPrefix(p))
		}
		if !back.Equal(a) {
			t.Fatalf("trial %d: prefix decomposition round trip failed", trial)
		}
		// Prefixes are disjoint (counts add up).
		var total uint64
		for _, p := range prefixes {
			total += FromPrefix(p).Count()
		}
		if total != a.Count() {
			t.Fatalf("trial %d: prefixes overlap", trial)
		}
	}
	// Edge cases.
	if got := Full().Prefixes(); len(got) != 1 || got[0] != netip.MustParsePrefix("0.0.0.0/0") {
		t.Errorf("Full prefixes = %v", got)
	}
	if len(Empty().Prefixes()) != 0 {
		t.Error("Empty prefixes nonzero")
	}
	one := FromRange(5, 5).Prefixes()
	if len(one) != 1 || one[0].Bits() != 32 {
		t.Errorf("singleton = %v", one)
	}
}
