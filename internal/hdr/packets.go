package hdr

import (
	"math/bits"
	"slices"
	"sort"

	"yardstick/internal/bdd"
)

// packetKey is a packet's header packed in variable order, most
// significant bit first: key bit i is the value of variable i. Five
// words hold the widest header (IPv6, 296 bits); the bits past a
// space's width are zero.
type packetKey [5]uint64

// put writes the low width bits of v (width at most 64) at key bits
// off…off+width-1.
func (k *packetKey) put(off, width int, v uint64) {
	w, b := off>>6, off&63
	if b+width <= 64 {
		k[w] |= v << (64 - b - width)
		return
	}
	spill := b + width - 64
	k[w] |= v >> spill
	k[w+1] |= v << (64 - spill)
}

// bit reports key bit i.
func (k *packetKey) bit(i int) bool { return k[i>>6]>>(63-i&63)&1 == 1 }

// from returns the key with every bit before bit i cleared: the part of
// the header a chain starting at variable i constrains.
func (k packetKey) from(i int) packetKey {
	for w := 0; w < i>>6; w++ {
		k[w] = 0
	}
	if i&63 != 0 {
		k[i>>6] &= ^uint64(0) >> (i & 63)
	}
	return k
}

// firstDiff returns the first bit at which two distinct keys differ.
func firstDiff(a, b *packetKey) int {
	w := 0
	for a[w] == b[w] {
		w++
	}
	return w<<6 + bits.LeadingZeros64(a[w]^b[w])
}

// key packs p in the space's variable order.
func (s *Space) key(p Packet) packetKey {
	var k packetKey
	dst, src := s.addrBytes(p.Dst), s.addrBytes(p.Src)
	s.putAddr(&k, s.dstOff, dst)
	s.putAddr(&k, s.srcOff, src)
	k.put(s.protoOff, ProtoBits, uint64(p.Proto))
	k.put(s.dstPortOff, DstPortBits, uint64(p.DstPort))
	k.put(s.srcPortOff, SrcPortBits, uint64(p.SrcPort))
	return k
}

// putAddr writes the top IPBits bits of an address (from addrBytes) at
// key bit off.
func (s *Space) putAddr(k *packetKey, off int, a [16]byte) {
	for i := 0; i < s.ipBits; i += 32 {
		k.put(off+i, 32, uint64(a[i/8])<<24|uint64(a[i/8+1])<<16|uint64(a[i/8+2])<<8|uint64(a[i/8+3]))
	}
}

// Packets returns the set of exactly the given packets: the union of
// their singletons, built without one of them. The packets are packed
// in variable order, sorted and deduplicated, and the diagram is made
// bottom-up with bdd.MakeNode by splitting the sorted keys at the first
// bit on which a range's first and last keys differ, so every node made
// is a node of the result: no singleton, no intermediate union, no
// op-cache traffic, one charged op per MakeNode. A range of one key is
// a literal chain; the chains from the source field down and from the
// protocol field down are memoized per call, so packets that share a
// source (or, like a pingmesh's echoes, their protocol and ports) share
// that part of the build. An empty list is the empty set. A caller that
// builds several sets of related packets keeps the memos across them
// with a PacketBuilder.
func (s *Space) Packets(pkts []Packet) Set { return s.PacketBuilder().Packets(pkts) }

// PacketBuilder builds packet sets as Space.Packets does, keeping the
// chain memos across its builds: a batch that builds one set per
// location (core's Trace.MarkConcrete) makes each source's chain once,
// not once at every location that source's packets reach. The memos
// hold nodes of the space, which are never freed, and an entry is
// stored only once its chain is whole, so a build cut short by a
// cancellation leaves the builder sound. Like the space, a builder is
// not safe for concurrent use.
type PacketBuilder struct {
	s *Space
	// srcTails and protoTails memoize the one-key chains that start at
	// the source and at the protocol field, by the key bits they
	// constrain.
	srcTails, protoTails map[packetKey]bdd.Node
}

// PacketBuilder returns a builder of the space's packet sets with empty
// memos.
func (s *Space) PacketBuilder() *PacketBuilder {
	return &PacketBuilder{s: s, srcTails: map[packetKey]bdd.Node{}, protoTails: map[packetKey]bdd.Node{}}
}

// Packets is Space.Packets over the builder's memos.
func (b *PacketBuilder) Packets(pkts []Packet) Set {
	s := b.s
	if len(pkts) == 0 {
		return s.Empty()
	}
	keys := make([]packetKey, len(pkts))
	for i, p := range pkts {
		keys[i] = s.key(p)
	}
	slices.SortFunc(keys, func(a, b packetKey) int { return slices.Compare(a[:], b[:]) })
	keys = slices.Compact(keys)
	w := packetWalk{PacketBuilder: b, keys: keys}
	return Set{s, w.node(0, len(keys), 0)}
}

// packetWalk is one build.
type packetWalk struct {
	*PacketBuilder
	keys []packetKey
}

// node builds the set of keys[lo:hi] (at least one), every one of which
// agrees on the bits before depth, over the variables from depth down.
func (w *packetWalk) node(lo, hi, depth int) bdd.Node {
	k := &w.keys[lo]
	if hi-lo == 1 {
		return w.chain(k, depth)
	}
	// Sorted and distinct: the range's keys agree up to where its first
	// and last differ, and there the ones with a 0 sort first.
	split := firstDiff(k, &w.keys[hi-1])
	mid := lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return w.keys[lo+1+i].bit(split) })
	n := w.s.m.MakeNode(split, w.node(lo, mid, split+1), w.node(mid, hi, split+1))
	return w.literals(k, depth, split, n)
}

// chain builds the one-packet set of key k over the variables from depth
// down, on its memoized protocol or source chain.
func (w *packetWalk) chain(k *packetKey, depth int) bdd.Node {
	s := w.s
	switch {
	case depth >= s.protoOff:
		return w.literals(k, depth, s.numBits, bdd.True)
	case depth >= s.srcOff:
		return w.literals(k, depth, s.protoOff, w.tail(k, s.protoOff))
	}
	return w.literals(k, depth, s.srcOff, w.tail(k, s.srcOff))
}

// tail returns k's chain from variable start, the source or the
// protocol field, down: memoized, and a source chain is built on its
// protocol chain.
func (w *packetWalk) tail(k *packetKey, start int) bdd.Node {
	memo := w.protoTails
	if start == w.s.srcOff {
		memo = w.srcTails
	}
	id := k.from(start)
	if n, ok := memo[id]; ok {
		return n
	}
	var n bdd.Node
	if start == w.s.srcOff {
		n = w.literals(k, start, w.s.protoOff, w.tail(k, w.s.protoOff))
	} else {
		n = w.literals(k, start, w.s.numBits, bdd.True)
	}
	memo[id] = n
	return n
}

// literals returns n under literals fixing variables from…to-1 to k's
// bits, made bottom-up.
func (w *packetWalk) literals(k *packetKey, from, to int, n bdd.Node) bdd.Node {
	for i := to - 1; i >= from; i-- {
		if k.bit(i) {
			n = w.s.m.MakeNode(i, bdd.False, n)
		} else {
			n = w.s.m.MakeNode(i, n, bdd.False)
		}
	}
	return n
}
