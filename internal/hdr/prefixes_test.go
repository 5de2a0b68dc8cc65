package hdr

import (
	"math/rand"
	"net/netip"
	"testing"

	"yardstick/internal/bdd"
)

// fromDstPrefixesOr is FromDstPrefixes as it was before the
// LongestMatch walk, an Or loop: its oracle.
func fromDstPrefixesOr(s *Space, prefixes []netip.Prefix) Set {
	n := bdd.False
	for _, p := range prefixes {
		n = s.m.Or(n, s.DstPrefix(p).n)
	}
	return Set{s, n}
}

func TestDstPrefixesSimple(t *testing.T) {
	s := NewSpace()
	in := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("192.168.1.0/24"),
	}
	set := s.FromDstPrefixes(in)
	got, complete := set.DstPrefixes(0)
	if !complete {
		t.Fatal("decomposition incomplete")
	}
	// Round trip: same set.
	if !s.FromDstPrefixes(got).Equal(set) {
		t.Fatalf("round trip failed: %v", got)
	}
	if len(got) != 2 {
		t.Errorf("got %d prefixes, want 2: %v", len(got), got)
	}
}

func TestDstPrefixesFullAndEmpty(t *testing.T) {
	s := NewSpace()
	got, complete := s.Full().DstPrefixes(0)
	if !complete || len(got) != 1 || got[0] != netip.MustParsePrefix("0.0.0.0/0") {
		t.Errorf("full space = %v", got)
	}
	got, complete = s.Empty().DstPrefixes(0)
	if !complete || len(got) != 0 {
		t.Errorf("empty space = %v", got)
	}
}

func TestDstPrefixesIgnoresOtherFields(t *testing.T) {
	s := NewSpace()
	set := s.DstPrefix(netip.MustParsePrefix("10.0.0.0/8")).Intersect(s.DstPort(443))
	got, complete := set.DstPrefixes(0)
	if !complete || len(got) != 1 || got[0] != netip.MustParsePrefix("10.0.0.0/8") {
		t.Errorf("projection = %v", got)
	}
}

func TestDstPrefixesAdjacentMerge(t *testing.T) {
	// Two adjacent /25s form one /24 in the BDD (canonical form), so the
	// decomposition returns the /24.
	s := NewSpace()
	set := s.FromDstPrefixes([]netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/25"),
		netip.MustParsePrefix("10.0.0.128/25"),
	})
	got, _ := set.DstPrefixes(0)
	if len(got) != 1 || got[0] != netip.MustParsePrefix("10.0.0.0/24") {
		t.Errorf("adjacent /25s = %v, want one /24", got)
	}
}

func TestDstPrefixesInteriorDontCare(t *testing.T) {
	// dst bit pattern 10.x.0.0/16 for x in {0,128}: second octet's MSB
	// free, rest fixed — an interior don't-care that must split.
	s := NewSpace()
	set := s.FromDstPrefixes([]netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.128.0.0/16"),
	})
	got, complete := set.DstPrefixes(0)
	if !complete {
		t.Fatal("incomplete")
	}
	if !s.FromDstPrefixes(got).Equal(set) {
		t.Fatalf("round trip failed: %v", got)
	}
}

func TestDstPrefixesBudget(t *testing.T) {
	s := NewSpace()
	var in []netip.Prefix
	for i := 0; i < 16; i++ {
		in = append(in, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(2 * i), 0, 0}), 16))
	}
	set := s.FromDstPrefixes(in)
	got, complete := set.DstPrefixes(4)
	if complete || len(got) != 4 {
		t.Errorf("budgeted decomposition: %d prefixes, complete=%v", len(got), complete)
	}
}

func TestDstPrefixesRoundTripRandom(t *testing.T) {
	s := NewSpace()
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		var in []netip.Prefix
		for i := rng.Intn(6) + 1; i > 0; i-- {
			bits := rng.Intn(25) + 8
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
			in = append(in, netip.PrefixFrom(addr, bits).Masked())
		}
		set := s.FromDstPrefixes(in)
		if !set.Equal(fromDstPrefixesOr(s, in)) {
			t.Fatalf("trial %d: FromDstPrefixes(%v) differs from the Or loop", trial, in)
		}
		got, complete := set.DstPrefixes(0)
		if !complete {
			t.Fatalf("trial %d incomplete", trial)
		}
		if !s.FromDstPrefixes(got).Equal(set) {
			t.Fatalf("trial %d: round trip failed (%v -> %v)", trial, in, got)
		}
	}
}
