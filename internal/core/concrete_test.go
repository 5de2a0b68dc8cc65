package core

import (
	"net/netip"
	"slices"
	"testing"

	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// concreteNet builds the small regional network FuzzMarkConcrete marks
// against, in one address family.
func concreteNet(tb testing.TB, v6 bool) (*netmodel.Network, []dataplane.Loc) {
	tb.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4, IPv6: v6,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Every device's injection point first, so small indices name
	// different devices; then every interface.
	var locs []dataplane.Loc
	for _, d := range rg.Net.Devices {
		locs = append(locs, dataplane.Injected(d.ID))
	}
	for _, d := range rg.Net.Devices {
		for _, ifid := range d.Ifaces {
			locs = append(locs, dataplane.Loc{Device: d.ID, Iface: ifid})
		}
	}
	return rg.Net, locs
}

// concretePacket reads a packet of the space's family from raw (zero
// padded): destination, source, protocol and ports.
func concretePacket(raw []byte, v6 bool) hdr.Packet {
	var b [37]byte
	copy(b[:], raw)
	addr := func(off int) netip.Addr {
		if v6 {
			return netip.AddrFrom16([16]byte(b[off : off+16]))
		}
		return netip.AddrFrom4([4]byte(b[off : off+4]))
	}
	return hdr.Packet{
		Dst:     addr(0),
		Src:     addr(16),
		Proto:   b[32],
		DstPort: uint16(b[33])<<8 | uint16(b[34]),
		SrcPort: uint16(b[35])<<8 | uint16(b[36]),
	}
}

// preMark is the set a pre-mark of the given kind puts at a location
// before the packet is marked: one holding pkt (its singleton, a
// destination prefix around it, everything) or one that does not (the
// same header on another port, a destination prefix that splits from
// pkt's address at bit param).
func preMark(sp *hdr.Space, pkt hdr.Packet, kind, param byte) hdr.Set {
	bits := pkt.Dst.BitLen()
	switch kind % 5 {
	case 0:
		return sp.Singleton(pkt)
	case 1:
		return sp.DstPrefix(netip.PrefixFrom(pkt.Dst, int(param)%(bits+1)).Masked())
	case 2:
		other := pkt
		other.DstPort++
		return sp.Singleton(other)
	case 3:
		bit := int(param) % bits
		raw := pkt.Dst.AsSlice()
		raw[bit/8] ^= 0x80 >> (bit % 8)
		flipped, _ := netip.AddrFromSlice(raw)
		return sp.DstPrefix(netip.PrefixFrom(flipped, bit+1).Masked())
	}
	return sp.Full()
}

// markConcreteReference is MarkConcrete one ping at a time, as it was
// before batches: a hop that holds the packet is skipped, and at the
// first hop that misses the singleton is built and unioned into that hop
// and every later one.
func markConcreteReference(t *Trace, sp *hdr.Space, pings []Ping) {
	for _, p := range pings {
		assign := sp.PacketAssign(p.Packet, nil)
		for i, hop := range p.Hops {
			if cur, ok := t.packets[hop.Loc]; ok && cur.Space() == sp && cur.ContainsAssign(assign) {
				continue
			}
			single := sp.Singleton(p.Packet)
			for _, h := range p.Hops[i:] {
				t.MarkPacket(h.Loc, single)
			}
			break
		}
	}
}

// concretePings reads a batch: rawPkts is a pool of packets, 37 bytes
// each (the last zero padded, at least one); rawHops lists hop locations
// by index into cand, a 0xff byte starting the next ping, and ping i
// sends pool packet i.
func concretePings(rawPkts, rawHops []byte, v6 bool, cand []dataplane.Loc) (pool []hdr.Packet, pings []Ping) {
	for len(pool) < 8 {
		pool = append(pool, concretePacket(rawPkts, v6))
		if len(rawPkts) <= 37 {
			break
		}
		rawPkts = rawPkts[37:]
	}
	pings = []Ping{{Packet: pool[0]}}
	for _, b := range rawHops[:min(len(rawHops), 64)] {
		if b == 0xff {
			pings = append(pings, Ping{Packet: pool[len(pings)%len(pool)]})
			continue
		}
		p := &pings[len(pings)-1]
		p.Hops = append(p.Hops, dataplane.TraceHop{Loc: cand[int(b)%len(cand)]})
	}
	return pool, pings
}

// FuzzMarkConcrete holds Trace.MarkConcrete to what it stands for: a
// MarkPacket of each ping's singleton at every hop, here the per-ping
// markConcreteReference. Over batches of IPv4 and IPv6 pings that share
// packets and hops, hops that repeat locations, and pre-marks that leave
// a hop empty, hold a ping's packet or hold other packets only (so a
// miss can come after hits), both traces end with the same node at
// every location, compare Equal, and report the same devices changed to
// a coverage view. When every hop already holds its packet,
// MarkConcrete charges no BDD op and makes no node.
func FuzzMarkConcrete(f *testing.F) {
	nets := map[bool]*netmodel.Network{}
	locs := map[bool][]dataplane.Loc{}
	for _, v6 := range []bool{false, true} {
		nets[v6], locs[v6] = concreteNet(f, v6)
	}
	v4pkt := []byte{10, 0, 1, 1, 15: 0, 10, 0, 0, 1, 32: 1}
	v6pkt := []byte{0xfd, 0, 0, 1, 15: 1, 0xfd, 0, 0, 2, 31: 1, 32: 6, 0, 80, 0x30, 0x39}
	// Fresh trace: the first hop misses.
	f.Add(false, v4pkt, []byte{0, 1, 2, 3}, []byte{})
	// Every hop held already: singleton, prefix, everything.
	f.Add(false, v4pkt, []byte{0, 1, 2, 3}, []byte{0, 0, 0, 1, 1, 8, 2, 4, 0, 3, 1, 24})
	// Hits, then a hop holding other packets, then an empty one.
	f.Add(true, v6pkt, []byte{0, 1, 2, 3}, []byte{0, 1, 48, 1, 0, 0, 2, 2, 0})
	// A repeated location that misses, with a split prefix pre-marked,
	// and an interface location.
	f.Add(true, v6pkt, []byte{5, 5, 2, 5, 25}, []byte{5, 3, 17, 2, 4, 0, 25, 2, 0})
	// Hit, miss, and the same two locations again.
	f.Add(false, v4pkt, []byte{1, 0, 1, 0}, []byte{1, 1, 16, 0, 3, 30})
	pool := func(pkts ...[]byte) []byte {
		var out []byte
		for _, p := range pkts {
			out = append(out, make([]byte, 37)...)
			copy(out[len(out)-37:], p)
		}
		return out
	}
	v4pool := pool(v4pkt, []byte{10, 0, 2, 1, 15: 0, 10, 0, 0, 1, 32: 1}, []byte{10, 0, 1, 1, 15: 0, 10, 0, 0, 2, 32: 6, 0, 22})
	v6pool := pool(v6pkt, []byte{0xfd, 0, 0, 1, 15: 2, 0xfd, 0, 0, 3, 31: 1, 32: 6, 0, 80, 0x30, 0x39})
	// Fresh trace: several pings crossing shared hops.
	f.Add(false, v4pool, []byte{0, 1, 2, 0xff, 0, 1, 3, 0xff, 4, 1, 2}, []byte{})
	// The same packet twice, and one ping's location repeated in another.
	f.Add(true, v6pool, []byte{0, 1, 0xff, 2, 0, 0xff, 0, 1, 0xff, 2, 2}, []byte{})
	// Pre-marked hops: every hop of every ping held already.
	f.Add(false, v4pool, []byte{0, 1, 0xff, 0, 2, 0xff, 1, 2}, []byte{0, 4, 0, 1, 4, 0, 2, 4, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0})
	// A miss after hits in one ping, while another ping hits there.
	f.Add(true, v6pool, []byte{0, 1, 2, 0xff, 1, 2}, []byte{0, 1, 64, 1, 1, 0, 2, 0, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, v6 bool, rawPkts, rawHops, rawPre []byte) {
		net, cand := nets[v6], locs[v6]
		sp := net.Space
		pool, pings := concretePings(rawPkts, rawHops, v6, cand)

		a, b := NewTrace(), NewTrace()
		for i := 0; i+2 < len(rawPre) && i < 96; i += 3 {
			loc := cand[int(rawPre[i])%len(cand)]
			s := preMark(sp, pool[i/3%len(pool)], rawPre[i+1], rawPre[i+2])
			a.MarkPacket(loc, s)
			b.MarkPacket(loc, s)
		}
		covered := true
		for _, p := range pings {
			for _, h := range p.Hops {
				if !a.PacketsAt(sp, h.Loc).ContainsPacket(p.Packet) {
					covered = false
				}
			}
		}
		ca, cb := NewCoverage(net, a), NewCoverage(net, b)
		ca.Refresh()
		cb.Refresh()

		before := sp.EngineStats()
		a.MarkConcrete(sp, pings)
		after := sp.EngineStats()
		markConcreteReference(b, sp, pings)

		if covered && (after.Ops != before.Ops || after.Nodes != before.Nodes) {
			t.Errorf("covered hops charged %d ops and made %d nodes, want none",
				after.Ops-before.Ops, after.Nodes-before.Nodes)
		}
		for _, l := range append(a.Locations(), b.Locations()...) {
			sa, oka := a.packets[l]
			sb, okb := b.packets[l]
			if oka != okb || sa.Node() != sb.Node() {
				t.Fatalf("%+v: MarkConcrete left node %d (stored %v), the per-ping reference %d (stored %v)",
					l, sa.Node(), oka, sb.Node(), okb)
			}
		}
		if !a.Equal(b) {
			t.Fatal("traces differ")
		}
		ca.sync()
		cb.sync()
		if !slices.Equal(ca.dirty, cb.dirty) {
			t.Fatalf("coverage view saw devices %v changed, want %v", dirtyDevices(ca), dirtyDevices(cb))
		}
	})
}

func dirtyDevices(c *Coverage) []int {
	var out []int
	for d, dirty := range c.dirty {
		if dirty {
			out = append(out, d)
		}
	}
	return out
}
