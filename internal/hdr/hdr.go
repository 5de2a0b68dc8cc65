// Package hdr models packet header spaces as BDD-backed sets.
//
// A packet header is the 5-tuple (dstIP, srcIP, proto, dstPort, srcPort)
// over one address family: 104 bits for IPv4, 296 for IPv6 — the paper's
// case-study network is dual-stack (/31 IPv4 and /126 IPv6 point-to-point
// prefixes), and per-family forwarding state is analyzed in its own
// space, as dataplane verifiers do. A Set is an arbitrary set of headers,
// represented canonically as a BDD, so equality is O(1) and the algebra
// of Figure 5 in the paper (empty, negate, union, intersect, equal,
// fromRule, count) runs in time proportional to the BDD sizes rather
// than the (astronomical) cardinality of the sets.
//
// Variable order places dstIP first, most significant bit at the top:
// forwarding state branches overwhelmingly on destination prefixes, and
// this order keeps FIB match sets near-linear in the number of prefixes.
package hdr

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"net/netip"

	"yardstick/internal/bdd"
)

// Family selects the address family of a Space.
type Family uint8

// Address families.
const (
	V4 Family = iota
	V6
)

func (f Family) String() string {
	if f == V6 {
		return "ipv6"
	}
	return "ipv4"
}

// ipBits returns the address width of the family.
func (f Family) ipBits() int {
	if f == V6 {
		return 128
	}
	return 32
}

// Fixed field widths shared by both families.
const (
	ProtoBits   = 8
	DstPortBits = 16
	SrcPortBits = 16
)

// Legacy IPv4 layout constants (the default Space).
const (
	DstIPBits = 32
	SrcIPBits = 32

	// NumBits is the total width of the IPv4 header space. IPv6 spaces
	// are wider; use Space.NumBits for family-correct code.
	NumBits = 2*32 + ProtoBits + DstPortBits + SrcPortBits
)

// Space owns the BDD universe for one analysis. It is not safe for
// concurrent use.
type Space struct {
	m      *bdd.Manager
	family Family

	ipBits     int
	dstOff     int
	srcOff     int
	protoOff   int
	dstPortOff int
	srcPortOff int
	numBits    int

	dstCube bdd.Node // cube of all dstIP variables, for quantification
	srcCube bdd.Node
}

// NewSpace returns a fresh IPv4 header space.
func NewSpace() *Space { return NewFamilySpace(V4) }

// NewSpaceV6 returns a fresh IPv6 header space.
func NewSpaceV6() *Space { return NewFamilySpace(V6) }

// NewFamilySpace returns a fresh header space of the given family.
func NewFamilySpace(f Family) *Space {
	ip := f.ipBits()
	s := &Space{
		family:     f,
		ipBits:     ip,
		dstOff:     0,
		srcOff:     ip,
		protoOff:   2 * ip,
		dstPortOff: 2*ip + ProtoBits,
		srcPortOff: 2*ip + ProtoBits + DstPortBits,
	}
	s.numBits = s.srcPortOff + SrcPortBits
	s.m = bdd.New(s.numBits)
	dstVars := make([]int, ip)
	srcVars := make([]int, ip)
	for i := 0; i < ip; i++ {
		dstVars[i] = s.dstOff + i
		srcVars[i] = s.srcOff + i
	}
	s.dstCube = s.m.Cube(dstVars)
	s.srcCube = s.m.Cube(srcVars)
	return s
}

// Family returns the space's address family.
func (s *Space) Family() Family { return s.family }

// NumBits returns the total header width of this space.
func (s *Space) NumBits() int { return s.numBits }

// IPBits returns the address width of this space (32 or 128).
func (s *Space) IPBits() int { return s.ipBits }

// Manager exposes the underlying BDD manager (used by tests and internal
// packages that need raw node operations).
func (s *Space) Manager() *bdd.Manager { return s.m }

// WatchContext makes the space's set operations observe ctx, aborting
// in-flight symbolic work shortly after cancellation (recovered by
// bdd.Guard as an error wrapping ctx.Err()). It returns a restore
// function; use it as
//
//	defer space.WatchContext(ctx)()
func (s *Space) WatchContext(ctx context.Context) (restore func()) {
	return s.m.WatchContext(ctx)
}

// EngineStats reports the underlying BDD manager's counters (node
// counts, unique-table load, op-cache hit/miss, charged ops) for stage
// spans and degradation diagnosis.
func (s *Space) EngineStats() bdd.Stats { return s.m.Stats() }

// Set is a set of packet headers within a Space.
type Set struct {
	sp *Space
	n  bdd.Node
}

// Node exposes the underlying BDD node.
func (a Set) Node() bdd.Node { return a.n }

// Space returns the space the set belongs to.
func (a Set) Space() *Space { return a.sp }

// Empty returns the empty set of headers.
func (s *Space) Empty() Set { return Set{s, bdd.False} }

// Full returns the set of all headers.
func (s *Space) Full() Set { return Set{s, bdd.True} }

// FromNode wraps a raw BDD node as a Set.
func (s *Space) FromNode(n bdd.Node) Set { return Set{s, n} }

func (s *Space) check(a, b Set) {
	if a.sp != s || b.sp != s {
		panic("hdr: sets from different spaces")
	}
}

// Union returns a ∪ b.
func (a Set) Union(b Set) Set {
	a.sp.check(a, b)
	return Set{a.sp, a.sp.m.Or(a.n, b.n)}
}

// UnionAll returns the union of sets, folded pairwise in the given order
// (neighbours first, then neighbouring pairs, …) rather than one by one
// into a growing accumulator: every intermediate stays as small as its
// operands, and two lists that begin alike repeat the same sub-unions,
// which the op cache then answers.
func (s *Space) UnionAll(sets []Set) Set {
	switch len(sets) {
	case 0:
		return s.Empty()
	case 1:
		return sets[0]
	}
	// Split at the largest power of two below len(sets): the tree a
	// bottom-up pairing would build, without scratch storage.
	mid := 1 << (bits.Len(uint(len(sets)-1)) - 1)
	return s.UnionAll(sets[:mid]).Union(s.UnionAll(sets[mid:]))
}

// Intersect returns a ∩ b.
func (a Set) Intersect(b Set) Set {
	a.sp.check(a, b)
	return Set{a.sp, a.sp.m.And(a.n, b.n)}
}

// Diff returns a ∖ b.
func (a Set) Diff(b Set) Set {
	a.sp.check(a, b)
	return Set{a.sp, a.sp.m.Diff(a.n, b.n)}
}

// Negate returns the complement of a.
func (a Set) Negate() Set { return Set{a.sp, a.sp.m.Not(a.n)} }

// Equal reports whether two sets contain the same headers.
func (a Set) Equal(b Set) bool {
	a.sp.check(a, b)
	return a.n == b.n
}

// IsEmpty reports whether the set is empty.
func (a Set) IsEmpty() bool { return a.n == bdd.False }

// IsFull reports whether the set is the full header space.
func (a Set) IsFull() bool { return a.n == bdd.True }

// Contains reports whether b ⊆ a.
func (a Set) Contains(b Set) bool {
	a.sp.check(a, b)
	return a.sp.m.Diff(b.n, a.n) == bdd.False
}

// Overlaps reports whether a ∩ b is non-empty.
func (a Set) Overlaps(b Set) bool {
	a.sp.check(a, b)
	return a.sp.m.And(a.n, b.n) != bdd.False
}

// Fraction returns |a| / 2^NumBits as a float64.
func (a Set) Fraction() float64 { return a.sp.m.SatFraction(a.n) }

// Count returns the exact number of headers in the set. It walks the
// whole set on every call; coverage ratios read Fraction instead.
func (a Set) Count() *big.Int { return a.sp.m.SatCount(a.n) }

// FractionOf returns |a ∩ b| / |b|, the share of b covered by a
// (0 when b is empty).
func (a Set) FractionOf(b Set) float64 {
	a.sp.check(a, b)
	return a.sp.m.SatFractionOf(a.n, b.n)
}

// addrBytes converts an address of the space's family to its bits, most
// significant first; an IPv4 address fills the first four bytes. The
// array is a value, so a caller's slice of it stays on its stack.
func (s *Space) addrBytes(a netip.Addr) (b [16]byte) {
	if s.family == V4 {
		if !a.Is4() {
			panic(fmt.Sprintf("hdr: address %v is not IPv4 (space family %v)", a, s.family))
		}
		v4 := a.As4()
		copy(b[:], v4[:])
		return b
	}
	if !a.Is6() || a.Is4() {
		panic(fmt.Sprintf("hdr: address %v is not IPv6 (space family %v)", a, s.family))
	}
	return a.As16()
}

// maxBits is the widest header any family has (IPv6).
const maxBits = 2*128 + ProtoBits + DstPortBits + SrcPortBits

// putBytes writes the top len(dst) bits of bytes into dst, most
// significant bit first.
func putBytes(dst []bool, bytes []byte) {
	for i := range dst {
		dst[i] = bytes[i/8]>>(7-i%8)&1 == 1
	}
}

// putValue writes the low len(dst) bits of v into dst, most significant
// bit first.
func putValue(dst []bool, v uint64) {
	for i := range dst {
		dst[i] = v>>(len(dst)-1-i)&1 == 1
	}
}

// bytesEq constrains the width variables at off to the top width bits of
// bytes: an address (width = IPBits) or a prefix of one.
func (s *Space) bytesEq(off, width int, bytes []byte) Set {
	var buf [128]bool
	vals := buf[:width]
	putBytes(vals, bytes)
	return Set{s, s.m.Literals(off, vals)}
}

// valueEq constrains the width-bit field at off to v.
func (s *Space) valueEq(off, width int, v uint64) Set {
	var buf [16]bool
	vals := buf[:width]
	putValue(vals, v)
	return Set{s, s.m.Literals(off, vals)}
}

// DstPrefix returns the set of headers whose destination IP lies in p.
func (s *Space) DstPrefix(p netip.Prefix) Set {
	b := s.addrBytes(p.Masked().Addr())
	return s.bytesEq(s.dstOff, p.Bits(), b[:])
}

// SrcPrefix returns the set of headers whose source IP lies in p.
func (s *Space) SrcPrefix(p netip.Prefix) Set {
	b := s.addrBytes(p.Masked().Addr())
	return s.bytesEq(s.srcOff, p.Bits(), b[:])
}

// DstIP returns the set of headers destined exactly to a.
func (s *Space) DstIP(a netip.Addr) Set {
	b := s.addrBytes(a)
	return s.bytesEq(s.dstOff, s.ipBits, b[:])
}

// SrcIP returns the set of headers sourced exactly from a.
func (s *Space) SrcIP(a netip.Addr) Set {
	b := s.addrBytes(a)
	return s.bytesEq(s.srcOff, s.ipBits, b[:])
}

// RestrictDstPrefix returns a with the destination bits that p fixes set
// to p's: the headers h for which h, its destination moved into p, lies
// in a. It is empty exactly when a misses DstPrefix(p) and full exactly
// when a contains it. The destination sits at the top of the variable
// order, so the answer is a node a already reaches, found by a walk down
// a's diagram from the address bytes: one charged op, no new node, no
// op-cache traffic. A zero-length or invalid prefix returns a itself.
func (a Set) RestrictDstPrefix(p netip.Prefix) Set {
	if !p.IsValid() || p.Bits() == 0 {
		return a
	}
	s := a.sp
	b := s.addrBytes(p.Addr())
	return Set{s, s.m.Restrict(a.n, s.dstOff, p.Bits(), b[:])}
}

// Proto returns the set of headers with the given IP protocol.
func (s *Space) Proto(p uint8) Set {
	return s.valueEq(s.protoOff, ProtoBits, uint64(p))
}

// rangeSet builds the set lo <= field <= hi for a width-bit field at off.
func (s *Space) rangeSet(off, width int, lo, hi uint64) bdd.Node {
	if lo > hi {
		return bdd.False
	}
	ge := s.cmpGE(off, width, lo)
	le := s.cmpLE(off, width, hi)
	return s.m.And(ge, le)
}

// cmpGE returns field >= v.
func (s *Space) cmpGE(off, width int, v uint64) bdd.Node {
	n := bdd.True
	for i := width - 1; i >= 0; i-- {
		bit := v>>(width-1-i)&1 == 1
		x := s.m.Var(off + i)
		if bit {
			n = s.m.And(x, n)
		} else {
			n = s.m.Or(x, n)
		}
	}
	return n
}

// cmpLE returns field <= v.
func (s *Space) cmpLE(off, width int, v uint64) bdd.Node {
	n := bdd.True
	for i := width - 1; i >= 0; i-- {
		bit := v>>(width-1-i)&1 == 1
		nx := s.m.NVar(off + i)
		if bit {
			n = s.m.Or(nx, n)
		} else {
			n = s.m.And(nx, n)
		}
	}
	return n
}

// DstPortRange returns the set of headers with lo <= dstPort <= hi.
func (s *Space) DstPortRange(lo, hi uint16) Set {
	return Set{s, s.rangeSet(s.dstPortOff, DstPortBits, uint64(lo), uint64(hi))}
}

// SrcPortRange returns the set of headers with lo <= srcPort <= hi.
func (s *Space) SrcPortRange(lo, hi uint16) Set {
	return Set{s, s.rangeSet(s.srcPortOff, SrcPortBits, uint64(lo), uint64(hi))}
}

// DstPort returns the set of headers with the given destination port.
func (s *Space) DstPort(p uint16) Set {
	return s.valueEq(s.dstPortOff, DstPortBits, uint64(p))
}

// SrcPort returns the set of headers with the given source port.
func (s *Space) SrcPort(p uint16) Set {
	return s.valueEq(s.srcPortOff, SrcPortBits, uint64(p))
}

// Packet is a single concrete packet header. Dst and Src must match the
// family of the space the packet is used with.
type Packet struct {
	Dst, Src         netip.Addr
	Proto            uint8
	DstPort, SrcPort uint16
}

// String renders the packet compactly for reports and traceroutes.
func (p Packet) String() string {
	return fmt.Sprintf("%s->%s proto=%d dport=%d sport=%d", p.Src, p.Dst, p.Proto, p.DstPort, p.SrcPort)
}

// Singleton returns the set containing exactly p.
func (s *Space) Singleton(p Packet) Set {
	var buf [maxBits]bool
	return Set{s, s.m.Literals(0, s.PacketAssign(p, buf[:0]))}
}

// ContainsPacket reports whether the concrete packet p is in the set.
// Callers testing one packet against many sets (per-rule walks like
// dataplane.Traceroute) should derive the assignment once with
// PacketAssign and use ContainsAssign instead — building the assignment
// dominates the per-set Eval.
func (a Set) ContainsPacket(p Packet) bool {
	return a.sp.m.Eval(a.n, a.sp.packetAssign(p))
}

// ContainsAssign reports whether the packet with the given variable
// assignment (from Space.PacketAssign) is in the set.
func (a Set) ContainsAssign(assign []bool) bool {
	return a.sp.m.Eval(a.n, assign)
}

// PacketAssign derives p's full-width variable assignment, reusing dst's
// storage when it is large enough. The result's length is NumBits; pass
// it to Set.ContainsAssign to test the same packet against many sets
// without re-deriving the bits each time.
func (s *Space) PacketAssign(p Packet, dst []bool) []bool {
	if cap(dst) < s.numBits {
		dst = make([]bool, s.numBits)
	}
	dst = dst[:s.numBits]
	s.fillAssign(dst, p)
	return dst
}

func (s *Space) packetAssign(p Packet) []bool {
	assign := make([]bool, s.numBits)
	s.fillAssign(assign, p)
	return assign
}

func (s *Space) fillAssign(assign []bool, p Packet) {
	dst, src := s.addrBytes(p.Dst), s.addrBytes(p.Src)
	putBytes(assign[s.dstOff:s.dstOff+s.ipBits], dst[:])
	putBytes(assign[s.srcOff:s.srcOff+s.ipBits], src[:])
	putValue(assign[s.protoOff:s.protoOff+ProtoBits], uint64(p.Proto))
	putValue(assign[s.dstPortOff:s.dstPortOff+DstPortBits], uint64(p.DstPort))
	putValue(assign[s.srcPortOff:s.srcPortOff+SrcPortBits], uint64(p.SrcPort))
}

// Sample returns one packet from the set, or ok=false when it is empty.
// Unconstrained header bits come back as zero.
func (a Set) Sample() (Packet, bool) {
	s := a.sp
	assign, ok := s.m.AnySat(a.n)
	if !ok {
		return Packet{}, false
	}
	getBytes := func(off, width int) []byte {
		out := make([]byte, width/8)
		for i := 0; i < width; i++ {
			if assign[off+i] {
				out[i/8] |= 1 << (7 - i%8)
			}
		}
		return out
	}
	get := func(off, width int) uint64 {
		var v uint64
		for i := 0; i < width; i++ {
			v <<= 1
			if assign[off+i] {
				v |= 1
			}
		}
		return v
	}
	var dst, src netip.Addr
	if s.family == V4 {
		dst = netip.AddrFrom4([4]byte(getBytes(s.dstOff, 32)))
		src = netip.AddrFrom4([4]byte(getBytes(s.srcOff, 32)))
	} else {
		dst = netip.AddrFrom16([16]byte(getBytes(s.dstOff, 128)))
		src = netip.AddrFrom16([16]byte(getBytes(s.srcOff, 128)))
	}
	return Packet{
		Dst:     dst,
		Src:     src,
		Proto:   uint8(get(s.protoOff, ProtoBits)),
		DstPort: uint16(get(s.dstPortOff, DstPortBits)),
		SrcPort: uint16(get(s.srcPortOff, SrcPortBits)),
	}, true
}

// RewriteDstIP returns the image of the set under "destination IP :=
// addr": all packets in a with the destination field replaced by addr.
// This models one-to-many/many-to-one transformations like NAT
// symbolically, via existential quantification followed by the new
// constraint.
func (a Set) RewriteDstIP(addr netip.Addr) Set {
	m := a.sp.m
	q := m.ExistsCube(a.n, a.sp.dstCube)
	return Set{a.sp, m.And(q, a.sp.DstIP(addr).n)}
}

// RewriteSrcIP is RewriteDstIP for the source IP field.
func (a Set) RewriteSrcIP(addr netip.Addr) Set {
	m := a.sp.m
	q := m.ExistsCube(a.n, a.sp.srcCube)
	return Set{a.sp, m.And(q, a.sp.SrcIP(addr).n)}
}
