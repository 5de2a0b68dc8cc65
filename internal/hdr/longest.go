package hdr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"

	"yardstick/internal/bdd"
)

// PrefixKey is a masked destination prefix as a plain value that sorts
// and searches with integer compares: the address as a 128-bit
// big-endian number (an IPv4 address in its IPv6-mapped form) and the
// length counted from the first of those 128 bits (an IPv4 /24 has Bits
// 120). Within one family its order is by address, shorter first, so a
// prefix comes immediately before every prefix inside it.
type PrefixKey struct {
	hi, lo uint64
	bits   int
}

// KeyOf returns the key of a valid, masked prefix.
func KeyOf(p netip.Prefix) PrefixKey {
	a := p.Addr().As16()
	k := PrefixKey{hi: binary.BigEndian.Uint64(a[:8]), lo: binary.BigEndian.Uint64(a[8:]), bits: p.Bits()}
	if p.Addr().Is4() {
		k.bits += 96
	}
	return k
}

// Bits returns the prefix length counted from the first of 128 bits.
func (k PrefixKey) Bits() int { return k.bits }

// Compare orders keys by address, shorter first.
func (k PrefixKey) Compare(o PrefixKey) int {
	switch {
	case k.hi != o.hi:
		return cmp.Compare(k.hi, o.hi)
	case k.lo != o.lo:
		return cmp.Compare(k.lo, o.lo)
	}
	return k.bits - o.bits
}

// Less is Compare(o) < 0, in a form the compiler inlines.
func (k PrefixKey) Less(o PrefixKey) bool {
	return k.hi < o.hi || k.hi == o.hi && (k.lo < o.lo || k.lo == o.lo && k.bits < o.bits)
}

// Truncate returns the key of the bits-long prefix that contains k.
func (k PrefixKey) Truncate(bits int) PrefixKey {
	if bits <= 64 {
		return PrefixKey{hi: k.hi &^ (^uint64(0) >> bits), bits: bits}
	}
	return PrefixKey{hi: k.hi, lo: k.lo &^ (^uint64(0) >> (bits - 64)), bits: bits}
}

// Contains reports whether prefix c lies inside prefix k.
func (k PrefixKey) Contains(c PrefixKey) bool {
	return c.bits >= k.bits && c.Truncate(k.bits) == k
}

// bit returns address bit i, counted from the first of 128 bits.
func (k PrefixKey) bit(i int) bool {
	if i < 64 {
		return k.hi>>(63-i)&1 == 1
	}
	return k.lo>>(127-i)&1 == 1
}

// LongestMatch returns the headers whose destination's longest matching
// prefix in keys is one with its flag set; a destination no key matches
// is outside the set. keys must be sorted and distinct (Compare) and of
// the space's family. For a destination-only table that is the union of
// the flagged rules' disjoint match sets — an action class, or a rule's
// match set given the rule and its immediate children — built without a
// single apply step: the walk splits the sorted list on one destination
// bit per level and makes the diagram bottom-up with bdd.MakeNode, one
// charged op per node and no op-cache traffic. A subtree that holds no
// flagged key under an unflagged match, or only flagged keys under a
// flagged one, is a terminal and is not descended.
func (s *Space) LongestMatch(keys []PrefixKey, flag []bool) Set {
	if len(flag) != len(keys) {
		panic(fmt.Sprintf("hdr: %d flags for %d prefixes", len(flag), len(keys)))
	}
	w := lpmWalk{s: s, keys: keys, flag: flag, top: 128 - s.ipBits, flagged: make([]int32, len(keys)+1)}
	for i, k := range keys {
		if k.bits < w.top || w.top > 0 && (k.hi != 0 || k.lo>>32 != 0xffff) {
			panic(fmt.Sprintf("hdr: prefix key %v is not %v", k, s.family))
		}
		if i > 0 && !keys[i-1].Less(k) {
			panic("hdr: prefix keys not sorted and distinct")
		}
		w.flagged[i+1] = w.flagged[i]
		if flag[i] {
			w.flagged[i+1]++
		}
	}
	return Set{s, w.node(0, len(keys), w.top, false)}
}

// lpmWalk is one LongestMatch walk. flagged[i] counts the flagged keys
// before position i, so a range's share of flagged keys is a subtraction.
type lpmWalk struct {
	s       *Space
	keys    []PrefixKey
	flag    []bool
	top     int // the key bit of the first destination variable
	flagged []int32
}

// node builds the set below the trie node at key bit depth, whose keys
// (every one inside the node) are keys[lo:hi]; in is the flag of the
// longest key that contains the node, false if none does.
func (w *lpmWalk) node(lo, hi, depth int, in bool) bdd.Node {
	if lo < hi && w.keys[lo].bits == depth {
		in = w.flag[lo]
		lo++
	}
	switch n := int(w.flagged[hi] - w.flagged[lo]); {
	case n == 0 && !in:
		return bdd.False
	case n == hi-lo && in:
		return bdd.True
	}
	// Every key left is longer than depth; those with a 0 at depth sort
	// first.
	mid, end := lo, hi
	for mid < end {
		m := int(uint(mid+end) >> 1)
		if w.keys[m].bit(depth) {
			end = m
		} else {
			mid = m + 1
		}
	}
	low := w.node(lo, mid, depth+1, in)
	high := w.node(mid, hi, depth+1, in)
	return w.s.m.MakeNode(w.s.dstOff+depth-w.top, low, high)
}
