package core_test

// The arena written from and imported into live spaces: random traces in
// both families round-trip, an import into a space that holds every node
// makes none, and neither end allocates anything sized by the space.

import (
	"bytes"
	"context"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// familyNet builds the small regional network of fuzzNet in one family.
func familyNet(tb testing.TB, v6 bool) *netmodel.Network {
	tb.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4, IPv6: v6,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rg.Net
}

// randomSet is a union of a few random 5-tuple boxes of sp.
func randomSet(sp *hdr.Space, rng *rand.Rand) hdr.Set {
	addr := func() netip.Prefix {
		var b [16]byte
		rng.Read(b[:])
		a := netip.AddrFrom4([4]byte(b[:4]))
		if sp.IPBits() == 128 {
			a = netip.AddrFrom16(b)
		}
		return netip.PrefixFrom(a, rng.Intn(sp.IPBits()+1)).Masked()
	}
	s := sp.Empty()
	for range 1 + rng.Intn(4) {
		box := sp.DstPrefix(addr())
		if rng.Intn(2) == 0 {
			box = box.Intersect(sp.SrcPrefix(addr()))
		}
		if rng.Intn(2) == 0 {
			box = box.Intersect(sp.Proto(uint8(rng.Intn(256))))
		}
		if rng.Intn(2) == 0 {
			lo := uint16(rng.Intn(1 << 16))
			box = box.Intersect(sp.DstPortRange(lo, lo+uint16(rng.Intn(1<<16-int(lo)))))
		}
		s = s.Union(box)
	}
	return s
}

// randomTrace marks random sets at random locations of net, and random
// rules.
func randomTrace(net *netmodel.Network, rng *rand.Rand) *core.Trace {
	tr := core.NewTrace()
	for range 1 + rng.Intn(12) {
		loc := dataplane.Loc{Device: netmodel.DeviceID(rng.Intn(len(net.Devices))), Iface: netmodel.NoIface}
		if rng.Intn(2) == 0 {
			loc.Iface = netmodel.IfaceID(rng.Intn(len(net.Ifaces)))
		}
		tr.MarkPacket(loc, randomSet(net.Space, rng))
	}
	for range rng.Intn(8) {
		tr.MarkRule(netmodel.RuleID(rng.Intn(len(net.Rules))))
	}
	return tr
}

// TestArenaRandomTraces: for random traces in both families, the arena
// written from the live space imports Equal into that space without
// making a node, and into a fresh replica it imports as the same
// functions: the replica writes the same bytes back.
func TestArenaRandomTraces(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		net, replica := familyNet(t, v6), familyNet(t, v6)
		rng := rand.New(rand.NewSource(3))
		for i := range 20 {
			tr := randomTrace(net, rng)
			var arena bytes.Buffer
			if err := core.EncodeSnapshotArena(&arena, net, tr); err != nil {
				t.Fatal(err)
			}
			size := net.Space.Manager().Size()
			got, err := core.DecodeSnapshotArena(arena.Bytes(), net)
			if err != nil {
				t.Fatalf("v6=%v trace %d: %v", v6, i, err)
			}
			if !got.Equal(tr) {
				t.Fatalf("v6=%v trace %d: the imported trace differs", v6, i)
			}
			if made := net.Space.Manager().Size() - size; made != 0 {
				t.Fatalf("v6=%v trace %d: importing into the space that wrote it made %d nodes", v6, i, made)
			}
			there, err := core.DecodeSnapshotArena(arena.Bytes(), replica)
			if err != nil {
				t.Fatalf("v6=%v trace %d: into a replica: %v", v6, i, err)
			}
			var back bytes.Buffer
			if err := core.EncodeSnapshotArena(&back, replica, there); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), arena.Bytes()) {
				t.Fatalf("v6=%v trace %d: the replica writes another arena back", v6, i)
			}
		}
	}
}

// allocBytes returns the bytes f allocates, averaged over runs.
func allocBytes(f func()) uint64 {
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestArenaCodecAllocation: a fragment of a real job costs both ends
// about what it carries, however large the space around it. Decoding it
// into a space that holds a daemon's worth of other nodes allocates less
// than 4× its size; encoding it allocates the same bytes before and
// after the space grows thirtyfold — no extraction space, op cache or
// memo over the space's nodes, only what scales with the fragment.
func TestArenaCodecAllocation(t *testing.T) {
	net := fuzzNet(t)
	suite, err := testkit.BuiltinSuite("default,internal,contract,reach")
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTrace()
	suite.Run(context.Background(), net, tr)
	fp := core.Fingerprint(net)
	var frag bytes.Buffer
	if err := core.EncodeFragmentArena(&frag, net, fp, tr); err != nil {
		t.Fatal(err)
	}
	encode := func() uint64 {
		return allocBytes(func() {
			if err := core.EncodeFragmentArena(&bytes.Buffer{}, net, fp, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, encodeSmall := net.Space.Manager().Size(), encode()

	// Nodes the fragment does not reach: a daemon's space holds every
	// job's sets.
	rng := rand.New(rand.NewSource(1))
	pkts := make([]hdr.Packet, 1000)
	for i := range pkts {
		pkts[i] = hdr.Packet{Dst: netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
			Src: netip.AddrFrom4([4]byte{192, 168, byte(rng.Intn(256)), byte(rng.Intn(256))}), Proto: 6, DstPort: uint16(rng.Intn(1 << 16))}
	}
	net.Space.Packets(pkts)
	large := net.Space.Manager().Size()
	if large < 20*small {
		t.Fatalf("the space grew from %d to %d nodes, want twentyfold", small, large)
	}
	if encodeLarge := encode(); encodeLarge > encodeSmall+512 {
		t.Errorf("encoding a %d-byte fragment allocates %d bytes in a %d-node space, %d in a %d-node one", frag.Len(), encodeSmall, small, encodeLarge, large)
	}
	decode := allocBytes(func() {
		if _, err := core.DecodeFragment(frag.Bytes(), net, fp); err != nil {
			t.Fatal(err)
		}
	})
	if decode >= uint64(4*frag.Len()) {
		t.Errorf("decoding a %d-byte fragment allocates %d bytes, want under 4×", frag.Len(), decode)
	}
	t.Logf("fragment %d bytes, space %d → %d nodes: encode allocates %d bytes, decode %d", frag.Len(), small, large, encodeSmall, decode)
}
