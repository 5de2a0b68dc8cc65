package hdr

import (
	"net/netip"
	"slices"

	"yardstick/internal/bdd"
)

// DstPrefixes decomposes the set's destination-IP projection into a list
// of CIDR prefixes — the human-readable form gap reports print ("rule r
// is untested for destinations 10.1.0.0/16, …").
//
// The set is first projected onto the destination field (everything else
// existentially quantified), then the BDD's cubes are emitted. A cube
// whose don't-care bits form a suffix is one prefix; a cube with interior
// don't-care bits is split recursively. max bounds the number of
// prefixes returned (0 = unlimited); the second result reports whether
// the decomposition is complete.
func (a Set) DstPrefixes(max int) ([]netip.Prefix, bool) {
	s := a.sp
	proj := s.m.ExistsCube(a.n, s.nonDstCube())

	var out []netip.Prefix
	complete := true
	s.m.AllSat(proj, func(cube []byte) bool {
		prefixes := cubeToPrefixes(cube[s.dstOff:s.dstOff+s.ipBits], s.family)
		for _, p := range prefixes {
			if max > 0 && len(out) >= max {
				complete = false
				return false
			}
			out = append(out, p)
		}
		return true
	})
	return out, complete
}

// nonDstCube returns the cube of every variable outside the destination
// field (cached lazily would be possible; projections are rare).
func (s *Space) nonDstCube() bdd.Node {
	var vars []int
	for v := 0; v < s.numBits; v++ {
		if v < s.dstOff || v >= s.dstOff+s.ipBits {
			vars = append(vars, v)
		}
	}
	return s.m.Cube(vars)
}

// cubeToPrefixes converts one ternary cube over the destination bits
// (MSB first; 0, 1, or 2 = don't care) into CIDR prefixes. Don't-care
// bits after the last constrained bit fold into the prefix length;
// interior don't-cares split the cube in two.
func cubeToPrefixes(cube []byte, f Family) []netip.Prefix {
	// Find the last constrained bit.
	last := -1
	for i, v := range cube {
		if v != 2 {
			last = i
		}
	}
	// Look for an interior don't-care.
	for i := 0; i < last; i++ {
		if cube[i] == 2 {
			lo := make([]byte, len(cube))
			hi := make([]byte, len(cube))
			copy(lo, cube)
			copy(hi, cube)
			lo[i] = 0
			hi[i] = 1
			return append(cubeToPrefixes(lo, f), cubeToPrefixes(hi, f)...)
		}
	}
	// Contiguous: bits 0..last are constrained.
	bytes := make([]byte, len(cube)/8)
	for i := 0; i <= last; i++ {
		if cube[i] == 1 {
			bytes[i/8] |= 1 << (7 - i%8)
		}
	}
	var addr netip.Addr
	if f == V4 {
		addr = netip.AddrFrom4([4]byte(bytes))
	} else {
		addr = netip.AddrFrom16([16]byte(bytes))
	}
	return []netip.Prefix{netip.PrefixFrom(addr, last+1)}
}

// FromDstPrefixes builds the union of destination-prefix sets — the
// inverse of DstPrefixes for destination-only sets — by one LongestMatch
// walk over the masked, sorted, distinct prefixes with every one flagged.
func (s *Space) FromDstPrefixes(prefixes []netip.Prefix) Set {
	keys := make([]PrefixKey, len(prefixes))
	for i, p := range prefixes {
		s.addrBytes(p.Addr()) // panics on the other family
		keys[i] = KeyOf(p.Masked())
	}
	slices.SortFunc(keys, PrefixKey.Compare)
	keys = slices.Compact(keys)
	flag := make([]bool, len(keys))
	for i := range flag {
		flag[i] = true
	}
	return s.LongestMatch(keys, flag)
}
