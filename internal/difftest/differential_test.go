package difftest

import (
	"math/big"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// TestDifferentialAgainstBDD cross-validates the two packet-set
// implementations: random expression trees over destination prefixes are
// evaluated both as interval sets and as BDD sets; counts, memberships,
// and prefix decompositions must agree on every node.
func TestDifferentialAgainstBDD(t *testing.T) {
	sp := hdr.NewSpace()
	rng := rand.New(rand.NewSource(99))

	randPrefix := func() netip.Prefix {
		bits := rng.Intn(33)
		addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		return netip.PrefixFrom(addr, bits).Masked()
	}

	type pair struct {
		iv Set
		bd hdr.Set
	}
	leaf := func() pair {
		p := randPrefix()
		return pair{FromPrefix(p), sp.DstPrefix(p)}
	}

	var build func(depth int) pair
	build = func(depth int) pair {
		if depth == 0 || rng.Intn(3) == 0 {
			return leaf()
		}
		a := build(depth - 1)
		switch rng.Intn(4) {
		case 0:
			b := build(depth - 1)
			return pair{a.iv.Union(b.iv), a.bd.Union(b.bd)}
		case 1:
			b := build(depth - 1)
			return pair{a.iv.Intersect(b.iv), a.bd.Intersect(b.bd)}
		case 2:
			b := build(depth - 1)
			return pair{a.iv.Diff(b.iv), a.bd.Diff(b.bd)}
		default:
			return pair{a.iv.Negate(), a.bd.Negate()}
		}
	}

	nonDstBits := hdr.NumBits - hdr.DstIPBits
	scale := new(big.Int).Lsh(big.NewInt(1), uint(nonDstBits))
	for trial := 0; trial < 60; trial++ {
		p := build(4)
		// Counts: the BDD count includes the free non-dst fields.
		wantCount := new(big.Int).Mul(new(big.Int).SetUint64(p.iv.Count()), scale)
		if got := p.bd.Count(); got.Cmp(wantCount) != 0 {
			t.Fatalf("trial %d: count mismatch: interval %v, bdd %v", trial, wantCount, got)
		}
		// Membership probes.
		for probe := 0; probe < 50; probe++ {
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			pkt := hdr.Packet{Dst: addr, Src: netip.MustParseAddr("1.2.3.4"), Proto: 6, DstPort: 80}
			if p.iv.ContainsAddr(addr) != p.bd.ContainsPacket(pkt) {
				t.Fatalf("trial %d: membership mismatch at %v", trial, addr)
			}
		}
		// Prefix decomposition agrees when rebuilt.
		prefixes, complete := p.bd.DstPrefixes(0)
		if !complete {
			t.Fatalf("trial %d: decomposition incomplete", trial)
		}
		rebuilt := Empty()
		for _, pf := range prefixes {
			rebuilt = rebuilt.Union(FromPrefix(pf))
		}
		if !rebuilt.Equal(p.iv) {
			t.Fatalf("trial %d: prefix decomposition disagrees", trial)
		}
	}
}

// TestDifferentialDisjointMatchSets holds §5.2 Step 1, as production
// derives it for destination-only FIBs, to longest-prefix match over
// intervals: every rule's match-set size and every FIBLookup answer must
// agree, on random tables frozen by ComputeMatchSets and again after a
// Mutation.Commit that removes, re-prefixes and adds rules (which patches
// the touched table instead of deriving it again).
func TestDifferentialDisjointMatchSets(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		net := netmodel.New()
		a := net.AddDevice("a", netmodel.RoleToR, 1)
		b := net.AddDevice("b", netmodel.RoleSpine, 2)
		ia, _ := net.Connect(a, b, netip.MustParsePrefix("10.255.255.0/31"))
		fwd := netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ia}}
		// Distinct prefixes: with two routes for one prefix the table,
		// not longest-prefix match, decides which one answers.
		seen := map[netip.Prefix]bool{}
		fresh := func() netmodel.Match {
			for {
				if p := randomFIBPrefix(rng); !seen[p] {
					seen[p] = true
					return netmodel.MatchDst(p)
				}
			}
		}
		for range 40 {
			net.AddFIBRule(a, fresh(), fwd, netmodel.OriginInternal)
		}
		net.AddFIBRule(a, netmodel.MatchDst(netip.MustParsePrefix("0.0.0.0/0")), fwd, netmodel.OriginDefault)
		net.ComputeMatchSets()
		checkLPM(t, net, a, rng)

		m := net.BeginMutation()
		fib := net.Device(a).FIB
		perm := rng.Perm(len(fib))
		for _, i := range perm[:5] {
			if err := m.Remove(fib[i]); err != nil {
				t.Fatal(err)
			}
		}
		def := func() netmodel.RuleDef {
			return netmodel.RuleDef{Device: a, Table: netmodel.TableFIB, Match: fresh(), Action: fwd, Origin: netmodel.OriginStatic}
		}
		for _, i := range perm[5:10] {
			if err := m.Modify(fib[i], def()); err != nil {
				t.Fatal(err)
			}
		}
		for range 5 {
			if err := m.Add(def()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		checkLPM(t, net, a, rng)
	}
}

// randomFIBPrefix is a route of length 8 to 32 in one of eight /3s, so
// routes nest and overlap often.
func randomFIBPrefix(rng *rand.Rand) netip.Prefix {
	addr := netip.AddrFrom4([4]byte{byte(rng.Intn(8) * 32), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	return netip.PrefixFrom(addr, rng.Intn(25)+8).Masked()
}

// checkLPM holds dev's FIB to the interval oracle: a rule's match set is
// its prefix less every longer prefix of the table, and a lookup answers
// with the rule whose match set holds the address (none: no route).
func checkLPM(t *testing.T, net *netmodel.Network, dev netmodel.DeviceID, rng *rand.Rand) {
	t.Helper()
	fib := net.Device(dev).FIB
	scale := new(big.Int).Lsh(big.NewInt(1), uint(hdr.NumBits-hdr.DstIPBits))
	sets := make([]Set, len(fib))
	var probes []netip.Addr
	for i, id := range fib {
		p := net.Rule(id).Match.DstPrefix
		sets[i] = FromPrefix(p)
		for _, other := range fib {
			if q := net.Rule(other).Match.DstPrefix; q.Bits() > p.Bits() && p.Contains(q.Addr()) {
				sets[i] = sets[i].Diff(FromPrefix(q))
			}
		}
		want := new(big.Int).Mul(new(big.Int).SetUint64(sets[i].Count()), scale)
		if got := net.Rule(id).MatchSet().Count(); got.Cmp(want) != 0 {
			t.Fatalf("rule %d (%v): match set holds %v packets, the intervals %v", id, p, got, want)
		}
		probes = append(probes, p.Addr(), u32ip(FromPrefix(p).Ranges()[0].Hi))
	}
	for range 64 {
		probes = append(probes, randomFIBPrefix(rng).Addr())
	}
	for _, dst := range probes {
		var want *netmodel.Rule
		for i, id := range fib {
			if sets[i].ContainsAddr(dst) {
				want = net.Rule(id)
			}
		}
		got, indexed := net.FIBLookup(dev, dst)
		if !indexed {
			t.Fatal("a destination-only FIB should take the prefix lookup")
		}
		if got != want {
			t.Fatalf("FIBLookup(%v) = %v, the intervals answer %v", dst, got, want)
		}
	}
}

// BenchmarkAblationRepresentation times §5.2 Step 1 on one 500-route
// destination-only FIB in both representations: the longest-prefix-first
// walk over interval lists, and ComputeMatchSets on a fresh BDD space,
// which is what production pays for such a table (DESIGN.md's ablation:
// BDDs buy generality — 5-tuple matches, transforms — at a cost intervals
// avoid for pure-dst tables). Only the derivation is timed.
func BenchmarkAblationRepresentation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var prefixes []netip.Prefix
	seen := map[netip.Prefix]bool{}
	for len(prefixes) < 500 {
		addr := netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		if p := netip.PrefixFrom(addr, rng.Intn(17)+8).Masked(); !seen[p] {
			seen[p] = true
			prefixes = append(prefixes, p)
		}
	}
	sort.SliceStable(prefixes, func(i, j int) bool { return prefixes[i].Bits() > prefixes[j].Bits() })
	b.Run("repr=interval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			claimed := Empty()
			for _, p := range prefixes {
				m := FromPrefix(p).Diff(claimed)
				_ = m
				claimed = claimed.Union(FromPrefix(p))
			}
		}
	})
	b.Run("repr=bdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := netmodel.New()
			a := net.AddDevice("a", netmodel.RoleToR, 1)
			c := net.AddDevice("b", netmodel.RoleSpine, 2)
			ia, _ := net.Connect(a, c, netip.MustParsePrefix("192.168.0.0/31"))
			fwd := netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ia}}
			for _, p := range prefixes {
				net.AddFIBRule(a, netmodel.MatchDst(p), fwd, netmodel.OriginInternal)
			}
			b.StartTimer()
			net.ComputeMatchSets()
		}
	})
}

// TestDifferentialPrefixesBothWays closes the loop: the interval engine's
// prefix decomposition rebuilt in the BDD engine equals the BDD set, and
// vice versa.
func TestDifferentialPrefixesBothWays(t *testing.T) {
	sp := hdr.NewSpace()
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 30; trial++ {
		var in []netip.Prefix
		for i := rng.Intn(5) + 1; i > 0; i-- {
			bits := rng.Intn(26) + 6
			addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
			in = append(in, netip.PrefixFrom(addr, bits).Masked())
		}
		iv := Empty()
		for _, p := range in {
			iv = iv.Union(FromPrefix(p))
		}
		bd := sp.FromDstPrefixes(in)

		// interval → prefixes → BDD
		if !sp.FromDstPrefixes(iv.Prefixes()).Equal(bd) {
			t.Fatalf("trial %d: interval decomposition disagrees with BDD", trial)
		}
		// BDD → prefixes → interval
		bdPrefixes, complete := bd.DstPrefixes(0)
		if !complete {
			t.Fatalf("trial %d: incomplete", trial)
		}
		back := Empty()
		for _, p := range bdPrefixes {
			back = back.Union(FromPrefix(p))
		}
		if !back.Equal(iv) {
			t.Fatalf("trial %d: BDD decomposition disagrees with interval", trial)
		}
	}
}
