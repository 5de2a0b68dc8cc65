package netmodel_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// checkEncoding compares the append encoder with the struct-based
// reference, byte for byte.
func checkEncoding(t testing.TB, name string, n *netmodel.Network) {
	t.Helper()
	var got, want bytes.Buffer
	if err := n.EncodeJSON(&got); err != nil {
		t.Fatalf("%s: EncodeJSON: %v", name, err)
	}
	if err := n.EncodeJSONReference(&want); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-60)
		t.Fatalf("%s: encodings differ at byte %d:\n got  …%q\n want …%q", name, i, g[lo:min(len(g), i+60)], w[lo:min(len(w), i+60)])
	}
}

// aclRegional is the regional Clos with seeded 5-tuple ACLs on its
// spines, the shape of the benchmark's service network.
func aclRegional(t testing.TB) *netmodel.Network {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := rg.Net.CloneTopology()
	for _, r := range rg.Net.Rules {
		n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
	}
	rng := rand.New(rand.NewSource(7))
	for _, sp := range rg.Spines {
		for j := 0; j < 6; j++ {
			m := netmodel.MatchAll()
			m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(rng.Intn(256)), 0}), 24)
			m.Proto = []int32{6, 17}[rng.Intn(2)]
			m.DstPortLo = uint16(1024 + rng.Intn(60000))
			m.DstPortHi = m.DstPortLo + uint16(rng.Intn(2000))
			m.SrcPortLo, m.SrcPortHi = 0, uint16(rng.Intn(65535))
			n.AddACLRule(sp, m, true)
		}
		n.AddACLRule(sp, netmodel.MatchAll(), false)
	}
	n.ComputeMatchSets()
	return n
}

func TestEncodeJSONMatchesReference(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, "example", ex.Net)
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, "fattree", ft.Net)
	for _, v6 := range []bool{false, true} {
		rg, err := topogen.BuildRegional(topogen.RegionalOpts{IPv6: v6, SubnetsPerToR: 2})
		if err != nil {
			t.Fatal(err)
		}
		checkEncoding(t, "regional", rg.Net)
	}
	checkEncoding(t, "regional+acl", aclRegional(t))

	checkEncoding(t, "empty", netmodel.New())
	checkEncoding(t, "empty-v6", netmodel.NewV6())

	// Every optional field at once: rewrites, a null route, an edge
	// interface without a peer, a device without an ASN, an ACL permit.
	n := netmodel.New()
	a := n.AddDevice("a", netmodel.RoleBorder, 0)
	b := n.AddDevice("b", netmodel.RoleLeaf, 65002)
	ia, _ := n.Connect(a, b, netip.MustParsePrefix("10.255.0.0/31"))
	n.AddEdgeIface(b, "host0", netip.Prefix{})
	n.AddIface(a, "spare")
	nat := netip.MustParseAddr("192.0.2.9")
	n.AddFIBRule(a, netmodel.MatchDst(netip.MustParsePrefix("10.1.0.0/24")), netmodel.Action{
		Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ia, ia},
		Transform: &netmodel.Transform{RewriteDst: true, RewriteSrc: true, Addr: nat},
	}, netmodel.OriginStatic)
	n.AddFIBRule(a, netmodel.MatchDst(netip.MustParsePrefix("10.2.0.0/24")), netmodel.Action{
		Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ia},
		Transform: &netmodel.Transform{Addr: nat},
	}, "")
	n.AddFIBRule(a, netmodel.MatchAll(), netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginDefault)
	n.AddFIBRule(b, netmodel.MatchDst(netip.MustParsePrefix("10.1.0.0/24")), netmodel.Action{Kind: netmodel.ActDeliver}, netmodel.OriginConnected)
	n.AddACLRule(b, netmodel.MatchAll(), false)
	m := netmodel.MatchAll()
	m.Proto, m.SrcPortLo, m.SrcPortHi = 0, 53, 53
	n.AddACLRule(b, m, true)
	n.ComputeMatchSets()
	checkEncoding(t, "every-field", n)
}

// chunkWriter records how EncodeJSON hands over its output and fails from
// the failAt-th write on (0 = never).
type chunkWriter struct {
	writes, largest, failAt int
}

var errChunk = errors.New("chunk writer full")

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.writes++
	if c.failAt > 0 && c.writes >= c.failAt {
		return 0, errChunk
	}
	c.largest = max(c.largest, len(p))
	return len(p), nil
}

// TestEncodeJSONStreams pins what the fingerprint path relies on: the
// document reaches the writer in bounded pieces, never whole, and the
// first write error ends the encoding and comes back.
func TestEncodeJSONStreams(t *testing.T) {
	n := aclRegional(t)
	var whole bytes.Buffer
	if err := n.EncodeJSON(&whole); err != nil {
		t.Fatal(err)
	}
	var cw chunkWriter
	if err := n.EncodeJSON(&cw); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 2 || cw.largest > 64<<10 {
		t.Fatalf("%d bytes written in %d pieces, the largest %d: want several pieces of at most 64 KiB",
			whole.Len(), cw.writes, cw.largest)
	}
	failing := chunkWriter{failAt: 2}
	if err := n.EncodeJSON(&failing); !errors.Is(err, errChunk) {
		t.Fatalf("EncodeJSON on a failing writer = %v, want %v", err, errChunk)
	}
	if failing.writes != 2 {
		t.Fatalf("EncodeJSON kept writing after the error: %d writes", failing.writes)
	}
}

// FuzzEncodeJSONNames feeds names that need escaping — quotes,
// backslashes, control bytes, HTML characters, U+2028, invalid UTF-8 —
// through both encoders.
func FuzzEncodeJSONNames(f *testing.F) {
	f.Add("tor-1", "eth0", "tor", "internal")
	f.Add(`a"b\c`, "x<y>&z", "r\u2028\u2029", "\x00\x1f\x7f")
	f.Add("\b\f\n\r\t", "\xff\xfe", "日本", "\u00e9\xc3")
	f.Fuzz(func(t *testing.T, dev, ifc, role, origin string) {
		if dev == "" {
			return // AddDevice names must be unique and DecodeJSON rejects ""; nothing to encode
		}
		n := netmodel.New()
		a := n.AddDevice(dev, netmodel.Role(role), 1)
		id := n.AddEdgeIface(a, ifc, netip.MustParsePrefix("10.0.0.0/24"))
		n.AddFIBRule(a, netmodel.MatchAll(), netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{id}}, netmodel.RouteOrigin(origin))
		n.ComputeMatchSets()
		checkEncoding(t, "fuzz", n)
	})
}
