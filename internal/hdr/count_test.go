package hdr

import (
	"math/big"
	"net/netip"
	"testing"
)

// expectCount asserts Count() == 2^shift.
func expectCount(t *testing.T, s *Space, set Set, shift int) {
	t.Helper()
	want := new(big.Int).Lsh(big.NewInt(1), uint(shift))
	if got := set.Count(); got.Cmp(want) != 0 {
		t.Errorf("%s: Count = %v, want 2^%d", s.Family(), got, shift)
	}
}

// TestCountCrossoverV4 walks destination prefix lengths across the
// 2^64 boundary in the 104-bit V4 space: /40 counts exactly 2^64,
// /39 is the first count above uint64, /41 the last below it.
func TestCountCrossoverV4(t *testing.T) {
	s := NewSpace()
	if s.NumBits() != 104 {
		t.Fatalf("V4 space is %d bits, test assumes 104", s.NumBits())
	}
	base := netip.MustParseAddr("10.0.0.0")
	for _, plen := range []int{0, 8, 32} {
		expectCount(t, s, s.DstPrefix(netip.PrefixFrom(base, plen)), s.NumBits()-plen)
	}
	// Cross 2^64 precisely: DstPrefix(/32) fixes 32 bits (2^72 left,
	// above uint64); adding src /32 and both exact ports fixes 96
	// bits (2^8 left, far below). The boundary itself: fix 40 bits
	// → 2^64 exactly.
	dst32 := s.DstPrefix(netip.PrefixFrom(base, 32))
	expectCount(t, s, dst32, 72)
	fix40 := dst32.Intersect(s.Proto(6)) // +8 bits → 2^64 exactly
	expectCount(t, s, fix40, 64)
	fix48 := fix40.Intersect(s.SrcPrefix(netip.PrefixFrom(base, 8))) // 2^56
	expectCount(t, s, fix48, 56)
	// Fraction must agree.
	if f := fix40.Fraction(); f != 1.0/(1<<40) {
		t.Errorf("fraction = %g, want 2^-40", f)
	}
}

// TestCountCrossoverV6 crosses the 2^128 boundary in the 296-bit V6
// space: 168 fixed bits leave exactly 2^128 assignments, the first
// count wider than 128 bits, while 169 (2^127) leave the last one that
// fits.
func TestCountCrossoverV6(t *testing.T) {
	s := NewSpaceV6()
	if s.NumBits() != 296 {
		t.Fatalf("V6 space is %d bits, test assumes 296", s.NumBits())
	}
	base := netip.MustParseAddr("2001:db8::")
	// dst /128 + src /plen + proto + both ports fixes 168+plen bits... keep
	// it simple: fix k bits via dst prefix and src prefix.
	dstFull := s.DstIP(base) // 128 bits fixed → 2^168 left (wide)
	expectCount(t, s, dstFull, 168)
	for _, srcLen := range []int{0, 39, 40, 41, 128} {
		set := dstFull.Intersect(s.SrcPrefix(netip.PrefixFrom(base, srcLen)))
		// 128+srcLen bits fixed: srcLen=40 leaves 2^128, srcLen=41
		// leaves 2^127.
		expectCount(t, s, set, 168-srcLen)
	}
	// Mixed-width DAG: union of a wide set and a narrow set must count
	// exactly (2^168 + 2^8 distinct assignments minus overlap handled
	// by BDD semantics — use disjoint dst IPs so it's a pure sum).
	other := s.DstIP(netip.MustParseAddr("2001:db8::1")).
		Intersect(s.SrcIP(base)).
		Intersect(s.Proto(17)).
		Intersect(s.DstPortRange(0, 0)).
		Intersect(s.SrcPortRange(0, 255)) // 2^8 assignments
	u := dstFull.Union(other)
	want := new(big.Int).Lsh(big.NewInt(1), 168)
	want.Add(want, big.NewInt(256))
	if got := u.Count(); got.Cmp(want) != 0 {
		t.Errorf("mixed union: Count = %v, want 2^168+256", got)
	}
}

// TestCountAllocsV4 pins the measure every coverage ratio reads: a warm
// Fraction on a V4 set must not allocate at all.
func TestCountAllocsV4(t *testing.T) {
	s := NewSpace()
	set := s.DstPrefix(netip.MustParsePrefix("10.0.0.0/9")).
		Union(s.SrcPortRange(1000, 2000)).
		Diff(s.Proto(6))
	set.Fraction()
	if allocs := testing.AllocsPerRun(100, func() { set.Fraction() }); allocs != 0 {
		t.Errorf("warm Fraction: %v allocs/op, want 0", allocs)
	}
}
