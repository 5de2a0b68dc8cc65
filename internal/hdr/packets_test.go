package hdr

import (
	"math/rand"
	"net/netip"
	"testing"
)

// genPackets decodes a packet list from bytes, four per packet: an op,
// an earlier packet to start from and two parameter bytes. Op 0 draws a
// fresh packet, op 1 repeats an earlier one, op 2 flips one header bit
// of an earlier one (the two share every bit above it) and op 3 changes
// an earlier one's protocol and ports only.
func genPackets(v6 bool, data []byte) []Packet {
	width := 32
	if v6 {
		width = 128
	}
	addr := func(rng *rand.Rand) netip.Addr {
		var b [16]byte
		rng.Read(b[:])
		if v6 {
			return netip.AddrFrom16(b)
		}
		return netip.AddrFrom4([4]byte(b[:4]))
	}
	var out []Packet
	for ; len(data) >= 4 && len(out) < 64; data = data[4:] {
		op, prev, b, c := data[0]%4, Packet{}, data[2], data[3]
		if len(out) > 0 {
			prev = out[int(data[1])%len(out)]
		} else {
			op = 0
		}
		switch op {
		case 0:
			rng := rand.New(rand.NewSource(int64(data[1])<<16 | int64(b)<<8 | int64(c)))
			prev = Packet{Dst: addr(rng), Src: addr(rng), Proto: uint8(rng.Intn(256)),
				DstPort: uint16(rng.Intn(1 << 16)), SrcPort: uint16(rng.Intn(1 << 16))}
		case 2:
			prev = flipHeaderBit(prev, (int(b)<<8|int(c))%(2*width+ProtoBits+DstPortBits+SrcPortBits), width)
		case 3:
			prev.Proto ^= b
			prev.DstPort ^= uint16(c)
			prev.SrcPort ^= uint16(b) << 8
		}
		out = append(out, prev)
	}
	return out
}

// flipHeaderBit flips header bit i (in variable order) of p.
func flipHeaderBit(p Packet, i, width int) Packet {
	flip := func(a netip.Addr, i int) netip.Addr {
		b := a.AsSlice()
		b[i/8] ^= 0x80 >> (i % 8)
		out, _ := netip.AddrFromSlice(b)
		return out
	}
	switch {
	case i < width:
		p.Dst = flip(p.Dst, i)
	case i < 2*width:
		p.Src = flip(p.Src, i-width)
	case i < 2*width+ProtoBits:
		p.Proto ^= 0x80 >> (i - 2*width)
	case i < 2*width+ProtoBits+DstPortBits:
		p.DstPort ^= 0x8000 >> (i - 2*width - ProtoBits)
	default:
		p.SrcPort ^= 0x8000 >> (i - 2*width - ProtoBits - DstPortBits)
	}
	return p
}

// checkPackets holds Packets to the Or of the packets' singletons, on a
// space that already holds the singletons of the first pre packets: the
// manager must gain exactly the nodes of the result it did not hold, so
// nothing but the result is made.
func checkPackets(t *testing.T, v6 bool, pkts []Packet, pre int) {
	t.Helper()
	s := NewSpace()
	if v6 {
		s = NewSpaceV6()
	}
	for _, p := range pkts[:min(pre, len(pkts))] {
		s.Singleton(p)
	}
	before := s.Clone()
	size := s.Manager().Size()
	got := s.Packets(pkts)
	made := s.Manager().Size() - size
	// Moving the result into the snapshot taken before makes exactly the
	// result's nodes the snapshot lacks: nodes below the clone point are
	// shared by index.
	NewTransfer(s, before).Move(got)
	if want := before.Manager().Size() - size; made != want {
		t.Errorf("Packets made %d nodes, the result has %d new ones", made, want)
	}
	want := s.Empty()
	for _, p := range pkts {
		want = want.Union(s.Singleton(p))
	}
	if !got.Equal(want) {
		t.Fatalf("Packets(%v) = node %d, want the singletons' union %d", pkts, got.Node(), want.Node())
	}
}

func TestPacketsCorners(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		s := NewSpace()
		if v6 {
			s = NewSpaceV6()
		}
		if !s.Packets(nil).IsEmpty() {
			t.Errorf("v6=%v: Packets(nil) is not empty", v6)
		}
		pkts := genPackets(v6, []byte{0, 0, 1, 2})
		if got, want := s.Packets(pkts), s.Singleton(pkts[0]); !got.Equal(want) {
			t.Errorf("v6=%v: one packet's set is node %d, its singleton %d", v6, got.Node(), want.Node())
		}
		ops := s.EngineStats().Ops
		s.Packets(pkts)
		if got := s.EngineStats().Ops - ops; got != uint64(s.NumBits()) {
			t.Errorf("v6=%v: one packet charged %d ops, want one per header bit (%d)", v6, got, s.NumBits())
		}
	}
}

// FuzzPackets: Packets against the union of singletons, over IPv4 and
// IPv6 lists with repeats, shared prefixes, shared tails and none at all.
func FuzzPackets(f *testing.F) {
	f.Add(false, []byte{}, uint8(0))
	f.Add(true, []byte{}, uint8(0))
	// Fresh, repeated, a flipped destination bit, new ports.
	f.Add(false, []byte{0, 1, 2, 3, 1, 0, 0, 0, 2, 0, 0, 17, 3, 1, 6, 80, 0, 9, 9, 9}, uint8(2))
	f.Add(true, []byte{0, 1, 2, 3, 2, 0, 0, 200, 2, 1, 1, 10, 3, 0, 17, 53, 1, 3, 0, 0}, uint8(1))
	// Flips deep in the source and port fields.
	f.Add(false, []byte{0, 7, 7, 7, 2, 0, 0, 40, 2, 1, 0, 70, 2, 2, 0, 103, 2, 0, 0, 72}, uint8(5))
	f.Add(true, []byte{0, 7, 7, 7, 2, 0, 0, 140, 2, 1, 1, 10, 2, 2, 1, 39, 2, 0, 1, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, v6 bool, data []byte, pre uint8) {
		checkPackets(t, v6, genPackets(v6, data), int(pre))
	})
}

// TestPacketBuilderSharesChains: one builder's builds land on the nodes
// Space.Packets gives, and a build whose packets share their source
// chains with an earlier build's charges only the nodes above those
// chains — a pingmesh batch's second location no longer rebuilds each
// source's chain.
func TestPacketBuilderSharesChains(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		s, width := NewSpace(), 32
		if v6 {
			s, width = NewSpaceV6(), 128
		}
		pkts := genPackets(v6, []byte{0, 0, 1, 2, 0, 0, 3, 4, 0, 0, 5, 6, 0, 0, 7, 8})
		// The same sources toward other destinations: a second location.
		other := make([]Packet, len(pkts))
		for i, p := range pkts {
			other[i] = flipHeaderBit(p, 0, width)
		}
		b := s.PacketBuilder()
		if got, want := b.Packets(pkts), s.Packets(pkts); got.Node() != want.Node() {
			t.Fatalf("v6=%v: builder gives node %d, Packets %d", v6, got.Node(), want.Node())
		}
		ops := s.Manager().Stats().Ops
		shared := b.Packets(other)
		sharedOps := s.Manager().Stats().Ops - ops
		ops = s.Manager().Stats().Ops
		if alone := s.Packets(other); alone.Node() != shared.Node() {
			t.Fatalf("v6=%v: builder gives node %d, Packets %d", v6, shared.Node(), alone.Node())
		}
		aloneOps := s.Manager().Stats().Ops - ops
		// Alone, each packet's source chain is rebuilt: at least the
		// source, protocol and port bits once per packet.
		if min := uint64(len(pkts) * (width + ProtoBits + DstPortBits + SrcPortBits)); aloneOps < min || sharedOps > aloneOps-min {
			t.Fatalf("v6=%v: second build charged %d ops through the builder, %d alone; want the builder to skip the %d source-chain ops", v6, sharedOps, aloneOps, min)
		}
	}
}
