package difftest

// This file implements destination-IP sets as sorted interval lists — an
// independent, much simpler implementation of the packet-set algebra for
// the destination-only fragment. It is the interval oracle: every
// operation must agree with internal/hdr on destination-only sets, and
// longest-prefix match over intervals must agree with the match sets and
// lookups netmodel derives for destination-only FIBs
// (differential_test.go). BenchmarkAblationRepresentation times it
// against the BDD derivation production runs.
//
// A Set is a canonical sorted list of disjoint, non-adjacent inclusive
// [Lo,Hi] ranges of 32-bit addresses, so structural equality is semantic
// equality, mirroring the BDD's canonicity property.

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// Range is an inclusive address interval.
type Range struct {
	Lo, Hi uint32
}

// Set is a canonical union of ranges. The zero value is the empty set.
type Set struct {
	ranges []Range
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// Full returns the set of all 2^32 addresses.
func Full() Set { return Set{ranges: []Range{{0, ^uint32(0)}}} }

// FromRange returns the set [lo,hi]; lo > hi yields the empty set.
func FromRange(lo, hi uint32) Set {
	if lo > hi {
		return Set{}
	}
	return Set{ranges: []Range{{lo, hi}}}
}

// FromPrefix returns the addresses of a CIDR prefix.
func FromPrefix(p netip.Prefix) Set {
	if !p.Addr().Is4() {
		panic(fmt.Sprintf("ipset: prefix %v is not IPv4", p))
	}
	b := p.Masked().Addr().As4()
	lo := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	size := uint64(1) << (32 - p.Bits())
	return FromRange(lo, lo+uint32(size-1))
}

// canonicalize sorts and merges overlapping or adjacent ranges.
func canonicalize(rs []Range) Set {
	if len(rs) == 0 {
		return Set{}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		// Merge when overlapping or adjacent (last.Hi+1 == r.Lo), being
		// careful about Hi = MaxUint32.
		if r.Lo <= last.Hi || (last.Hi != ^uint32(0) && r.Lo == last.Hi+1) {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return Set{ranges: out}
}

// Union returns a ∪ b.
func (a Set) Union(b Set) Set {
	rs := make([]Range, 0, len(a.ranges)+len(b.ranges))
	rs = append(rs, a.ranges...)
	rs = append(rs, b.ranges...)
	return canonicalize(rs)
}

// Intersect returns a ∩ b.
func (a Set) Intersect(b Set) Set {
	var out []Range
	i, j := 0, 0
	for i < len(a.ranges) && j < len(b.ranges) {
		ra, rb := a.ranges[i], b.ranges[j]
		lo := max32(ra.Lo, rb.Lo)
		hi := min32(ra.Hi, rb.Hi)
		if lo <= hi {
			out = append(out, Range{lo, hi})
		}
		if ra.Hi < rb.Hi {
			i++
		} else {
			j++
		}
	}
	return Set{ranges: out}
}

// Negate returns the complement of a.
func (a Set) Negate() Set {
	var out []Range
	next := uint32(0)
	started := false
	for _, r := range a.ranges {
		if !started {
			if r.Lo > 0 {
				out = append(out, Range{0, r.Lo - 1})
			}
		} else if r.Lo > next {
			out = append(out, Range{next, r.Lo - 1})
		}
		started = true
		if r.Hi == ^uint32(0) {
			return Set{ranges: out}
		}
		next = r.Hi + 1
	}
	if !started {
		return Full()
	}
	out = append(out, Range{next, ^uint32(0)})
	return Set{ranges: out}
}

// Diff returns a ∖ b.
func (a Set) Diff(b Set) Set { return a.Intersect(b.Negate()) }

// Equal reports set equality (canonical form makes this structural).
func (a Set) Equal(b Set) bool {
	if len(a.ranges) != len(b.ranges) {
		return false
	}
	for i := range a.ranges {
		if a.ranges[i] != b.ranges[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the set is empty.
func (a Set) IsEmpty() bool { return len(a.ranges) == 0 }

// Count returns the number of addresses in the set.
func (a Set) Count() uint64 {
	var n uint64
	for _, r := range a.ranges {
		n += uint64(r.Hi-r.Lo) + 1
	}
	return n
}

// Contains reports whether addr is in the set.
func (a Set) Contains(addr uint32) bool {
	i := sort.Search(len(a.ranges), func(i int) bool { return a.ranges[i].Hi >= addr })
	return i < len(a.ranges) && a.ranges[i].Lo <= addr
}

// ContainsAddr reports whether an IPv4 address is in the set.
func (a Set) ContainsAddr(ip netip.Addr) bool {
	b := ip.As4()
	return a.Contains(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// Overlaps reports whether a ∩ b is non-empty.
func (a Set) Overlaps(b Set) bool { return !a.Intersect(b).IsEmpty() }

// Ranges returns the canonical intervals (a copy).
func (a Set) Ranges() []Range {
	return append([]Range(nil), a.ranges...)
}

// String renders the set as intervals for diagnostics.
func (a Set) String() string {
	if a.IsEmpty() {
		return "∅"
	}
	var sb strings.Builder
	for i, r := range a.ranges {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%s,%s]", u32ip(r.Lo), u32ip(r.Hi))
	}
	return sb.String()
}

func u32ip(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Prefixes decomposes the set into a minimal list of CIDR prefixes —
// the inverse of FromPrefix unions, mirroring hdr.Set.DstPrefixes for
// the differential tests.
func (a Set) Prefixes() []netip.Prefix {
	var out []netip.Prefix
	for _, r := range a.ranges {
		out = append(out, rangePrefixes(r.Lo, r.Hi)...)
	}
	return out
}

// rangePrefixes covers [lo,hi] with the standard greedy CIDR split.
func rangePrefixes(lo, hi uint32) []netip.Prefix {
	var out []netip.Prefix
	for {
		// The largest block starting at lo: limited by lo's alignment
		// (2^32 when lo is 0) and by the remaining span. Both limits
		// are powers of two after halving, so size stays a power of two.
		size := uint64(lo & -lo)
		if lo == 0 {
			size = 1 << 32
		}
		span := uint64(hi) - uint64(lo) + 1
		for size > span {
			size >>= 1
		}
		bits := 32
		for s := size; s > 1; s >>= 1 {
			bits--
		}
		out = append(out, netip.PrefixFrom(u32ip(lo), bits))
		if uint64(lo)+size > uint64(hi) {
			return out
		}
		lo += uint32(size)
	}
}
