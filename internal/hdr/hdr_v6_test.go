package hdr

import (
	"math"
	"math/big"
	"net/netip"
	"testing"
)

func TestV6SpaceBasics(t *testing.T) {
	s := NewSpaceV6()
	if s.Family() != V6 || s.IPBits() != 128 {
		t.Fatalf("family=%v ipBits=%d", s.Family(), s.IPBits())
	}
	if s.NumBits() != 2*128+ProtoBits+DstPortBits+SrcPortBits {
		t.Fatalf("numBits = %d", s.NumBits())
	}
	want := new(big.Int).Lsh(big.NewInt(1), uint(s.NumBits()))
	if s.Full().Count().Cmp(want) != 0 {
		t.Error("full count wrong")
	}
}

func TestV6PrefixFractions(t *testing.T) {
	s := NewSpaceV6()
	cases := []struct {
		prefix string
		frac   float64
	}{
		{"::/0", 1},
		{"2001:db8::/32", math.Pow(2, -32)},
		{"fd00::/8", math.Pow(2, -8)},
		{"fd00:1:2::/48", math.Pow(2, -48)},
	}
	for _, c := range cases {
		got := s.DstPrefix(netip.MustParsePrefix(c.prefix)).Fraction()
		if math.Abs(got-c.frac) > c.frac*1e-12 {
			t.Errorf("%s fraction = %g, want %g", c.prefix, got, c.frac)
		}
	}
	// Nesting.
	p32 := s.DstPrefix(netip.MustParsePrefix("2001:db8::/32"))
	p48 := s.DstPrefix(netip.MustParsePrefix("2001:db8:7::/48"))
	if !p32.Contains(p48) || p48.Contains(p32) {
		t.Error("v6 nesting wrong")
	}
}

func TestV6SingletonSampleTrace(t *testing.T) {
	s := NewSpaceV6()
	p := Packet{
		Dst:     netip.MustParseAddr("2001:db8::42"),
		Src:     netip.MustParseAddr("fd00::9"),
		Proto:   58, // ICMPv6
		DstPort: 0, SrcPort: 0,
	}
	set := s.Singleton(p)
	if set.Count().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("singleton count = %v", set.Count())
	}
	if !set.ContainsPacket(p) {
		t.Fatal("membership")
	}
	got, ok := set.Sample()
	if !ok || got != p {
		t.Fatalf("sample = %v", got)
	}
}

func TestV6CubesRoundTrip(t *testing.T) {
	s := NewSpaceV6()
	set := s.DstPrefix(netip.MustParsePrefix("fd00:1::/64")).Intersect(s.Proto(6)).
		Union(s.SrcPrefix(netip.MustParsePrefix("2001:db8::/32")))
	back, err := s.FromCubes(set.Cubes())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(set) {
		t.Fatal("v6 cube round trip failed")
	}
}

func TestV6DstPrefixes(t *testing.T) {
	s := NewSpaceV6()
	in := []netip.Prefix{
		netip.MustParsePrefix("fd00:1::/64"),
		netip.MustParsePrefix("2001:db8:9::/48"),
	}
	set := s.FromDstPrefixes(in)
	if !set.Equal(fromDstPrefixesOr(s, in)) {
		t.Fatal("FromDstPrefixes differs from the Or loop")
	}
	got, complete := set.DstPrefixes(0)
	if !complete {
		t.Fatal("incomplete")
	}
	if !s.FromDstPrefixes(got).Equal(set) {
		t.Fatalf("round trip: %v", got)
	}
}

func TestV6RewriteDst(t *testing.T) {
	s := NewSpaceV6()
	in := s.DstPrefix(netip.MustParsePrefix("fd00::/16")).Intersect(s.DstPort(443))
	vip := netip.MustParseAddr("2001:db8::80")
	out := in.RewriteDstIP(vip)
	if !s.DstIP(vip).Contains(out) || !s.DstPort(443).Contains(out) {
		t.Error("v6 rewrite wrong")
	}
}

func TestFamilyMismatchPanics(t *testing.T) {
	s4, s6 := NewSpace(), NewSpaceV6()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("v6 prefix in v4 space", func() { s4.DstPrefix(netip.MustParsePrefix("fd00::/16")) })
	mustPanic("v4 prefix in v6 space", func() { s6.DstPrefix(netip.MustParsePrefix("10.0.0.0/8")) })
	mustPanic("v4 addr in v6 space", func() { s6.DstIP(netip.MustParseAddr("10.0.0.1")) })
}
