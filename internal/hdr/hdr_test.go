package hdr

import (
	"math"
	"math/big"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEmptyFull(t *testing.T) {
	s := NewSpace()
	if !s.Empty().IsEmpty() {
		t.Error("Empty() not empty")
	}
	if !s.Full().IsFull() {
		t.Error("Full() not full")
	}
	if s.Empty().Fraction() != 0 || s.Full().Fraction() != 1 {
		t.Error("fractions of empty/full wrong")
	}
	want := new(big.Int).Lsh(big.NewInt(1), NumBits)
	if s.Full().Count().Cmp(want) != 0 {
		t.Errorf("Full().Count() = %v, want 2^%d", s.Full().Count(), NumBits)
	}
}

func TestDstPrefixFraction(t *testing.T) {
	s := NewSpace()
	cases := []struct {
		prefix string
		frac   float64
	}{
		{"0.0.0.0/0", 1},
		{"10.0.0.0/8", 1.0 / 256},
		{"10.1.0.0/16", 1.0 / 65536},
		{"10.1.2.0/24", 1.0 / (1 << 24)},
		{"10.1.2.3/32", 1.0 / (1 << 32)},
	}
	for _, c := range cases {
		got := s.DstPrefix(mustPrefix(t, c.prefix)).Fraction()
		if math.Abs(got-c.frac) > 1e-18 {
			t.Errorf("DstPrefix(%s).Fraction() = %g, want %g", c.prefix, got, c.frac)
		}
	}
}

func TestPrefixNesting(t *testing.T) {
	s := NewSpace()
	p8 := s.DstPrefix(mustPrefix(t, "10.0.0.0/8"))
	p16 := s.DstPrefix(mustPrefix(t, "10.1.0.0/16"))
	other := s.DstPrefix(mustPrefix(t, "192.168.0.0/16"))
	if !p8.Contains(p16) {
		t.Error("10/8 should contain 10.1/16")
	}
	if p8.Overlaps(other) {
		t.Error("10/8 should not overlap 192.168/16")
	}
	if !p16.Intersect(p8).Equal(p16) {
		t.Error("intersection of nested prefixes should be the narrower")
	}
	// Difference removes the subset exactly.
	d := p8.Diff(p16)
	if d.Overlaps(p16) {
		t.Error("p8∖p16 overlaps p16")
	}
	if !d.Union(p16).Equal(p8) {
		t.Error("(p8∖p16) ∪ p16 != p8")
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	s := NewSpace()
	rng := rand.New(rand.NewSource(42))
	randSet := func() Set {
		set := s.Empty()
		for i := 0; i < rng.Intn(4)+1; i++ {
			bits := rng.Intn(25) + 8
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			p := netip.PrefixFrom(addr, bits).Masked()
			set = set.Union(s.DstPrefix(p))
		}
		if rng.Intn(3) == 0 {
			set = set.Intersect(s.Proto(uint8(rng.Intn(256))))
		}
		return set
	}
	f := func(seed int64) bool {
		a, b := randSet(), randSet()
		// Commutativity, De Morgan, difference identity.
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Union(b).Negate().Equal(a.Negate().Intersect(b.Negate())) {
			return false
		}
		if !a.Diff(b).Equal(a.Intersect(b.Negate())) {
			return false
		}
		// Inclusion-exclusion over fractions.
		lhs := a.Union(b).Fraction() + a.Intersect(b).Fraction()
		rhs := a.Fraction() + b.Fraction()
		return math.Abs(lhs-rhs) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPortRange(t *testing.T) {
	s := NewSpace()
	r := s.DstPortRange(100, 199)
	wantFrac := 100.0 / 65536
	if math.Abs(r.Fraction()-wantFrac) > 1e-15 {
		t.Errorf("DstPortRange(100,199).Fraction() = %g, want %g", r.Fraction(), wantFrac)
	}
	for _, port := range []uint16{100, 150, 199} {
		if !r.Contains(s.DstPort(port)) {
			t.Errorf("range should contain port %d", port)
		}
	}
	for _, port := range []uint16{0, 99, 200, 65535} {
		if r.Overlaps(s.DstPort(port)) {
			t.Errorf("range should not contain port %d", port)
		}
	}
	if !s.DstPortRange(0, 65535).IsFull() {
		t.Error("full port range should be the full space")
	}
	if !s.DstPortRange(5, 4).IsEmpty() {
		t.Error("inverted range should be empty")
	}
	if !s.SrcPortRange(23, 23).Equal(s.SrcPort(23)) {
		t.Error("degenerate src range != exact port")
	}
}

func TestPortRangeBruteForce(t *testing.T) {
	s := NewSpace()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		lo := uint16(rng.Intn(300))
		hi := uint16(rng.Intn(300))
		r := s.DstPortRange(lo, hi)
		for probe := 0; probe < 40; probe++ {
			p := uint16(rng.Intn(400))
			want := p >= lo && p <= hi
			got := r.Contains(s.DstPort(p))
			if got != want {
				t.Fatalf("range [%d,%d] port %d: got %v want %v", lo, hi, p, got, want)
			}
		}
	}
}

func TestSingletonAndSample(t *testing.T) {
	s := NewSpace()
	p := Packet{
		Dst:     netip.MustParseAddr("10.1.2.3"),
		Src:     netip.MustParseAddr("192.168.0.9"),
		Proto:   6,
		DstPort: 443,
		SrcPort: 51034,
	}
	set := s.Singleton(p)
	if set.Count().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("singleton count = %v", set.Count())
	}
	if !set.ContainsPacket(p) {
		t.Fatal("singleton does not contain its packet")
	}
	got, ok := set.Sample()
	if !ok || got != p {
		t.Fatalf("Sample() = %v, %v; want %v", got, ok, p)
	}
	if _, ok := s.Empty().Sample(); ok {
		t.Error("Sample of empty set returned a packet")
	}
}

// TestUnionAll: the pairwise fold equals the one-by-one union for every
// list length around the powers of two it splits at.
func TestUnionAll(t *testing.T) {
	s := NewSpace()
	var sets []Set
	want := s.Empty()
	for i := 0; i <= 17; i++ {
		if got := s.UnionAll(sets); !got.Equal(want) {
			t.Fatalf("UnionAll of %d sets differs from their union", i)
		}
		next := s.DstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i * 7), 0, 0}), 16)).
			Intersect(s.DstPort(uint16(i)))
		sets = append(sets, next)
		want = want.Union(next)
	}
}

func TestSampleIsMember(t *testing.T) {
	s := NewSpace()
	set := s.DstPrefix(mustPrefix(t, "10.0.0.0/8")).Intersect(s.Proto(17))
	p, ok := set.Sample()
	if !ok {
		t.Fatal("sample failed")
	}
	if !set.ContainsPacket(p) {
		t.Fatalf("sampled packet %v not in set", p)
	}
	if p.Proto != 17 {
		t.Errorf("sampled proto = %d, want 17", p.Proto)
	}
	if p.Dst.As4()[0] != 10 {
		t.Errorf("sampled dst %v not in 10/8", p.Dst)
	}
}

func TestRewriteDstIP(t *testing.T) {
	s := NewSpace()
	in := s.DstPrefix(mustPrefix(t, "10.0.0.0/8")).Intersect(s.SrcPrefix(mustPrefix(t, "172.16.0.0/12")))
	target := netip.MustParseAddr("192.0.2.1")
	out := in.RewriteDstIP(target)
	// All outputs have the rewritten destination.
	if !s.DstIP(target).Contains(out) {
		t.Error("rewrite output has packets with the wrong destination")
	}
	// Source constraint is preserved.
	if !s.SrcPrefix(mustPrefix(t, "172.16.0.0/12")).Contains(out) {
		t.Error("rewrite output lost the source constraint")
	}
	// Many-to-one: the output count equals the input count divided by the
	// size of the quantified dst space within the input (10/8 = 2^24 dsts).
	wantCount := new(big.Int).Div(in.Count(), new(big.Int).Lsh(big.NewInt(1), 24))
	if out.Count().Cmp(wantCount) != 0 {
		t.Errorf("rewrite output count = %v, want %v", out.Count(), wantCount)
	}
}

func TestRewriteSrcIP(t *testing.T) {
	s := NewSpace()
	in := s.SrcPrefix(mustPrefix(t, "10.0.0.0/24")).Intersect(s.DstPort(80))
	target := netip.MustParseAddr("203.0.113.5")
	out := in.RewriteSrcIP(target)
	if !s.SrcIP(target).Contains(out) {
		t.Error("src rewrite wrong source")
	}
	if !s.DstPort(80).Contains(out) {
		t.Error("src rewrite lost dst port constraint")
	}
}

func TestFractionOf(t *testing.T) {
	s := NewSpace()
	whole := s.DstPrefix(mustPrefix(t, "10.0.0.0/8"))
	half := s.DstPrefix(mustPrefix(t, "10.0.0.0/9"))
	if got := half.FractionOf(whole); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("FractionOf nested halves = %v, want 0.5", got)
	}
	if got := whole.FractionOf(s.Empty()); got != 0 {
		t.Errorf("FractionOf empty base = %v, want 0", got)
	}
}

func TestCrossSpacePanics(t *testing.T) {
	s1, s2 := NewSpace(), NewSpace()
	defer func() {
		if recover() == nil {
			t.Error("union across spaces did not panic")
		}
	}()
	s1.Full().Union(s2.Full())
}

func TestDifferentFieldsIndependent(t *testing.T) {
	s := NewSpace()
	a := s.DstPrefix(mustPrefix(t, "10.0.0.0/8"))
	b := s.Proto(6)
	inter := a.Intersect(b)
	wantFrac := a.Fraction() * b.Fraction()
	if math.Abs(inter.Fraction()-wantFrac) > 1e-18 {
		t.Errorf("independent fields: got %g, want %g", inter.Fraction(), wantFrac)
	}
}

func TestCubesRoundTrip(t *testing.T) {
	s := NewSpace()
	sets := []Set{
		s.Empty(),
		s.Full(),
		s.DstPrefix(mustPrefix(t, "10.0.0.0/8")).Intersect(s.Proto(6)),
		s.DstPortRange(100, 199).Union(s.SrcPrefix(mustPrefix(t, "172.16.0.0/12"))),
	}
	for i, set := range sets {
		cubes := set.Cubes()
		back, err := s.FromCubes(cubes)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if !back.Equal(set) {
			t.Fatalf("set %d: cube round trip failed (%d cubes)", i, len(cubes))
		}
	}
	if len(s.Empty().Cubes()) != 0 {
		t.Error("empty set should have no cubes")
	}
}

func TestFromCubesErrors(t *testing.T) {
	s := NewSpace()
	if _, err := s.FromCubes([]string{"01"}); err == nil {
		t.Error("short cube should error")
	}
	if _, err := s.FromCubes([]string{string(make([]byte, NumBits))}); err == nil {
		t.Error("invalid characters should error")
	}
}

// TestRestrictDstPrefix: the walk along a destination prefix is full
// exactly when the set contains the prefix and empty exactly when it misses
// it, and agrees with the set inside the prefix, in both families, at /0,
// at full length and for an invalid prefix (the set itself). One walk is
// one charged op.
func TestRestrictDstPrefix(t *testing.T) {
	for _, tc := range []struct {
		space    *Space
		pieces   []string // the sets are unions of these, some narrowed by port
		prefixes []string
	}{
		{NewSpace(),
			[]string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.3/32", "192.168.0.0/31", "0.0.0.0/1"},
			[]string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.3.0/24", "10.1.2.3/32", "10.1.2.4/32", "192.168.0.1/32", "192.168.0.0/30", "128.0.0.0/1", "11.0.0.0/8"}},
		{NewSpaceV6(),
			[]string{"2001:db8::/32", "2001:db8:1::/48", "fd00::/8", "fd00::1/128", "::/1"},
			[]string{"::/0", "2001:db8::/32", "2001:db8:1::/48", "2001:db8:2::/48", "fd00::1/128", "fd00::2/128", "fe80::/10", "8000::/1"}},
	} {
		s := tc.space
		rng := rand.New(rand.NewSource(int64(s.Family()) + 21))
		sets := []Set{s.Empty(), s.Full(), s.DstPort(80)}
		for i := 0; i < 40; i++ {
			a := s.Empty()
			for _, p := range tc.pieces {
				if rng.Intn(3) == 0 {
					piece := s.DstPrefix(mustPrefix(t, p))
					if rng.Intn(3) == 0 {
						piece = piece.Intersect(s.DstPortRange(1000, 2000))
					}
					a = a.Union(piece)
				}
			}
			sets = append(sets, a)
		}
		for _, a := range sets {
			for _, ps := range tc.prefixes {
				p := mustPrefix(t, ps)
				in := s.DstPrefix(p)
				ops := s.EngineStats().Ops
				c := a.RestrictDstPrefix(p)
				if got := s.EngineStats().Ops - ops; got != 1 && p.Bits() > 0 {
					t.Errorf("%v: the walk charged %d ops, want 1", p, got)
				}
				if c.IsFull() != a.Contains(in) || c.IsEmpty() == a.Overlaps(in) {
					t.Fatalf("%v in %v: full=%v empty=%v, but Contains=%v Overlaps=%v", p, s.Family(), c.IsFull(), c.IsEmpty(), a.Contains(in), a.Overlaps(in))
				}
				if !c.Intersect(in).Equal(a.Intersect(in)) {
					t.Fatalf("%v in %v: the restriction disagrees with the set inside the prefix", p, s.Family())
				}
			}
			if !a.RestrictDstPrefix(netip.Prefix{}).Equal(a) {
				t.Error("an invalid prefix changed the set")
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("an IPv6 prefix walked an IPv4 set")
		}
	}()
	NewSpace().Full().RestrictDstPrefix(netip.MustParsePrefix("2001:db8::/32"))
}
