package delta

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/faults"
	"yardstick/internal/netmodel"
)

func pfx(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildBase builds a frozen two-device network: a's FIB holds a default,
// a 10/8 and a 10.1/16 route plus one ACL deny; b's FIB a default and a
// 172.16/12 route.
func buildBase(t testing.TB) *netmodel.Network {
	t.Helper()
	n := netmodel.New()
	a := n.AddDevice("a", netmodel.RoleToR, 1)
	b := n.AddDevice("b", netmodel.RoleSpine, 2)
	ia, ib := n.Connect(a, b, pfx(t, "10.255.0.0/31"))
	aFwd := netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ia}}
	bFwd := netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{ib}}
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "0.0.0.0/0")), aFwd, netmodel.OriginDefault)
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "10.0.0.0/8")), aFwd, netmodel.OriginInternal)
	n.AddFIBRule(a, netmodel.MatchDst(pfx(t, "10.1.0.0/16")), aFwd, netmodel.OriginInternal)
	n.AddACLRule(a, netmodel.MatchDst(pfx(t, "192.168.0.0/16")), true)
	n.AddFIBRule(b, netmodel.MatchDst(pfx(t, "0.0.0.0/0")), bFwd, netmodel.OriginDefault)
	n.AddFIBRule(b, netmodel.MatchDst(pfx(t, "172.16.0.0/12")), bFwd, netmodel.OriginStatic)
	n.ComputeMatchSets()
	return n
}

func encodeNet(t testing.TB, n *netmodel.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func specOf(t testing.TB, n *netmodel.Network, id netmodel.RuleID) *netmodel.RuleSpec {
	t.Helper()
	s := n.RuleSpecOf(id)
	return &s
}

func allRules(n *netmodel.Network) []netmodel.RuleID {
	out := make([]netmodel.RuleID, len(n.Rules))
	for i := range out {
		out[i] = netmodel.RuleID(i)
	}
	return out
}

// freshEncoding encodes the network without reading its encoding cache:
// a clone carries none and encodes its rules from their fields.
func freshEncoding(t testing.TB, n *netmodel.Network) []byte {
	t.Helper()
	return encodeNet(t, n.Clone())
}

// assertEngineEquivalent checks the correctness bar: the incremental
// network and trace yield coverage bit-identical to a from-scratch
// rebuild (same JSON, fresh space, full re-derivation) with the trace
// transferred over. The rebuild, and the fingerprints, which resume from
// the network's marks, are held to an encoding that reads no cached
// bytes, so neither a stale cache nor a stale mark can pass.
func assertEngineEquivalent(t testing.TB, e *Engine) {
	t.Helper()
	fresh := freshEncoding(t, e.Net)
	if !bytes.Equal(encodeNet(t, e.Net), fresh) {
		t.Fatal("cached encoding differs from a fresh one")
	}
	sum := sha256.Sum256(fresh)
	if want := hex.EncodeToString(sum[:]); core.Fingerprint(e.Net) != want || e.Fingerprint() != want {
		t.Fatalf("fingerprints %.12s (network), %.12s (engine); fresh encoding hashes to %.12s", core.Fingerprint(e.Net), e.Fingerprint(), want)
	}
	rb, err := netmodel.DecodeJSON(bytes.NewReader(fresh))
	if err != nil {
		t.Fatal(err)
	}
	rb.ComputeMatchSets()
	moved := e.Trace.TransferTo(rb.Space)
	covLive := core.NewCoverage(e.Net, e.Trace)
	covRb := core.NewCoverage(rb, moved)
	for _, kind := range []core.AggKind{core.Simple, core.Weighted, core.Fractional} {
		lv := core.RuleCoverage(covLive, allRules(e.Net), kind)
		rv := core.RuleCoverage(covRb, allRules(rb), kind)
		if lv != rv {
			t.Fatalf("rule coverage (kind %v) diverged: incremental %v, rebuild %v", kind, lv, rv)
		}
	}
	// The transfer round-trip is exact: moving the trace back must
	// reproduce it node for node.
	if !moved.TransferTo(e.Net.Space).Equal(e.Trace) {
		t.Fatal("trace transfer round-trip not exact")
	}
}

func TestApplyValidation(t *testing.T) {
	n := buildBase(t)
	e, err := NewEngine(n, core.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	before := encodeNet(t, n)
	spec := specOf(t, n, 0)
	// Addresses of the other family panicked in hdr once Commit derived
	// their packet sets; the spec is rejected before that.
	v6dst := *spec
	v6dst.Match.Dst = "2001:db8::/32"
	v6src := *spec
	v6src.Match.Src = "::/0"
	v6nat := *spec
	v6nat.Transform = &netmodel.TransformSpec{RewriteDst: true, Addr: "2001:db8::1"}
	cases := []struct {
		name string
		ops  []Op
		want string
	}{
		{"add ipv6 dst", []Op{{Op: OpAdd, Spec: &v6dst}}, "2001:db8:: is not an ipv4 address"},
		{"modify ipv6 src", []Op{{Op: OpModify, Rule: 0, Spec: &v6src}}, ":: is not an ipv4 address"},
		{"add ipv6 rewrite", []Op{{Op: OpAdd, Spec: &v6nat}}, "is not an ipv4 address"},
		{"remove with spec", []Op{{Op: OpRemove, Rule: 0, Spec: spec}}, "carries a rule spec"},
		{"modify without spec", []Op{{Op: OpModify, Rule: 0}}, "without a rule spec"},
		{"add without spec", []Op{{Op: OpAdd}}, "without a rule spec"},
		{"unknown op", []Op{{Op: "replace", Rule: 0}}, "unknown op"},
		{"bad rule id", []Op{{Op: OpRemove, Rule: 99}}, "out of range"},
		{"double remove", []Op{{Op: OpRemove, Rule: 0}, {Op: OpRemove, Rule: 0}}, "already removed"},
	}
	for _, tc := range cases {
		_, err := e.Apply(Document{Ops: tc.ops})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if !bytes.Equal(before, encodeNet(t, n)) {
		t.Fatal("rejected documents changed the network")
	}
}

func TestApplyBaseMismatch(t *testing.T) {
	n := buildBase(t)
	e, err := NewEngine(n, core.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Apply(Document{Base: "deadbeef", Ops: []Op{{Op: OpRemove, Rule: 0}}})
	var bm *BaseMismatchError
	if !errors.As(err, &bm) || bm.Current != e.Fingerprint() {
		t.Fatalf("err = %v, want BaseMismatchError with current fingerprint", err)
	}
	// The correct base applies; the fingerprint advances.
	old := e.Fingerprint()
	ap, err := e.Apply(Document{Base: old, Ops: []Op{{Op: OpRemove, Rule: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Fingerprint == old || ap.Fingerprint != e.Fingerprint() {
		t.Fatal("fingerprint did not advance with the delta")
	}
	// Replaying against the stale base now fails — the retry-safety
	// property remote clients rely on.
	if _, err := e.Apply(Document{Base: old, Ops: []Op{{Op: OpRemove, Rule: 0}}}); err == nil {
		t.Fatal("stale base accepted after the network moved")
	}
}

func TestApplyDecayAccounting(t *testing.T) {
	n := buildBase(t)
	tr := core.NewTrace()
	tr.MarkRule(1) // a's 10/8 — will be removed
	tr.MarkRule(2) // a's 10.1/16 — will be modified
	tr.MarkRule(4) // b's default — untouched, must survive
	pk := n.Space.DstPrefix(pfx(t, "10.1.2.0/24"))
	loc := dataplane.Injected(netmodel.DeviceID(0))
	tr.MarkPacket(loc, pk)
	e, err := NewEngine(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	f1 := n.Rule(1).MatchSet().Fraction()
	f2 := n.Rule(2).MatchSet().Fraction()

	mod := specOf(t, n, 2)
	mod.Match.Dst = "10.2.0.0/16"
	ap, err := e.Apply(Document{Ops: []Op{
		{Op: OpRemove, Rule: 1},
		{Op: OpModify, Rule: 2, Spec: mod},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Removed != 1 || ap.Modified != 1 || ap.Added != 0 {
		t.Fatalf("counts = %+v", ap)
	}
	if ap.Decay.DroppedMarks != 2 {
		t.Fatalf("DroppedMarks = %d, want 2", ap.Decay.DroppedMarks)
	}
	if ap.Decay.LostFraction != f1+f2 {
		t.Errorf("LostFraction = %v, want %v", ap.Decay.LostFraction, f1+f2)
	}
	removedSeen, modifiedSeen := false, false
	for _, l := range ap.Decay.Lost {
		switch l.OldID {
		case 1:
			removedSeen = l.Removed && l.Fraction == f1 && l.Device == "a"
		case 2:
			modifiedSeen = !l.Removed && l.Fraction == f2
		}
	}
	if !removedSeen || !modifiedSeen {
		t.Errorf("Lost rows wrong: %+v", ap.Decay.Lost)
	}
	// b's mark survives at its compacted ID (4 → 3); a's packet mark
	// survives by location.
	if !e.Trace.RuleMarked(3) {
		t.Error("untouched device's rule mark lost")
	}
	if !e.Trace.PacketsAt(e.Net.Space, loc).Equal(pk) {
		t.Error("packet mark lost")
	}
	if len(ap.Drift) == 0 || ap.Drift[0].Device != "a" {
		t.Errorf("drift rows = %+v", ap.Drift)
	}
	assertEngineEquivalent(t, e)
}

// TestApplyBudgetTripAtomic cancels a delta at its second op, inside
// the derivation of the staged rules: the network, fingerprint and trace
// are as they were, and the engine applies the delta under a live
// context afterwards.
func TestApplyBudgetTripAtomic(t *testing.T) {
	n := buildBase(t)
	tr := core.NewTrace()
	tr.MarkRule(1)
	e, err := NewEngine(n, tr)
	if err != nil {
		t.Fatal(err)
	}
	before := encodeNet(t, n)
	fp := e.Fingerprint()
	spec := &netmodel.RuleSpec{Device: 0, Table: "fib", Action: "drop",
		Match: netmodel.MatchSpec{Dst: "10.77.0.0/16"}, Origin: "static"}
	restore := n.Space.WatchContext(faults.CancelAtOp(n.Space.Manager(), 1))
	gerr := bdd.Guard(func() {
		e.Apply(Document{Ops: []Op{{Op: OpAdd, Spec: spec}, {Op: OpAdd, Spec: spec}}})
	})
	restore()
	if !errors.Is(gerr, context.Canceled) {
		t.Fatalf("gerr = %v, want the cancellation", gerr)
	}
	if !bytes.Equal(before, encodeNet(t, n)) {
		t.Fatal("network changed despite a cancelled delta")
	}
	if e.Fingerprint() != fp {
		t.Fatal("fingerprint moved despite aborted delta")
	}
	if !e.Trace.RuleMarked(1) {
		t.Fatal("trace changed despite aborted delta")
	}
	if _, err := e.Apply(Document{Ops: []Op{{Op: OpAdd, Spec: spec}}}); err != nil {
		t.Fatal(err)
	}
	assertEngineEquivalent(t, e)
}

// randomOps assembles a valid delta document against n's current
// universe: removals and modifies target distinct random rules, adds
// invent random FIB routes on random devices.
func randomOps(rng *rand.Rand, n *netmodel.Network) []Op {
	var ops []Op
	used := map[netmodel.RuleID]bool{}
	for i := 0; i < 1+rng.Intn(4); i++ {
		switch k := rng.Intn(3); {
		case k == 0 && len(n.Rules) > 1:
			id := netmodel.RuleID(rng.Intn(len(n.Rules)))
			if !used[id] {
				used[id] = true
				ops = append(ops, Op{Op: OpRemove, Rule: id})
			}
		case k == 1 && len(n.Rules) > 0:
			id := netmodel.RuleID(rng.Intn(len(n.Rules)))
			if !used[id] {
				used[id] = true
				spec := n.RuleSpecOf(id)
				spec.Match.Dst = netip.PrefixFrom(
					netip.AddrFrom4([4]byte{byte(rng.Intn(4) * 64), byte(rng.Intn(256)), 0, 0}),
					1+rng.Intn(24),
				).Masked().String()
				ops = append(ops, Op{Op: OpModify, Rule: id, Spec: &spec})
			}
		default:
			dev := n.Devices[rng.Intn(len(n.Devices))]
			spec := netmodel.RuleSpec{
				Device: int32(dev.ID), Table: "fib", Action: "drop",
				Match: netmodel.MatchSpec{Dst: netip.PrefixFrom(
					netip.AddrFrom4([4]byte{byte(rng.Intn(4) * 64), byte(rng.Intn(256)), 0, 0}),
					rng.Intn(25),
				).Masked().String()},
				Origin: "static",
			}
			ops = append(ops, Op{Op: OpAdd, Spec: &spec})
		}
	}
	return ops
}

// randomTrace marks random packets and rules against n.
func randomTrace(rng *rand.Rand, n *netmodel.Network) *core.Trace {
	tr := core.NewTrace()
	for i := 0; i < 3; i++ {
		dev := netmodel.DeviceID(rng.Intn(len(n.Devices)))
		pf := netip.PrefixFrom(
			netip.AddrFrom4([4]byte{byte(rng.Intn(4) * 64), byte(rng.Intn(256)), 0, 0}),
			rng.Intn(25),
		).Masked()
		tr.MarkPacket(dataplane.Injected(dev), n.Space.DstPrefix(pf))
	}
	for i := 0; i < 3 && len(n.Rules) > 0; i++ {
		tr.MarkRule(netmodel.RuleID(rng.Intn(len(n.Rules))))
	}
	return tr
}

// TestPropertyDeltaEquivalence drives random delta streams and checks
// after every step that incremental coverage is bit-identical to a
// from-scratch rebuild.
func TestPropertyDeltaEquivalence(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		n := buildBase(t)
		e, err := NewEngine(n, randomTrace(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 5; step++ {
			ops := randomOps(rng, n)
			ap, err := e.Apply(Document{Base: e.Fingerprint(), Ops: ops})
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if ap.Fingerprint != e.Fingerprint() {
				t.Fatal("reported fingerprint differs from engine state")
			}
			assertEngineEquivalent(t, e)
		}
	}
}

// FuzzDeltaEquivalence lets the fuzzer steer the op stream; every
// accepted document must preserve rebuild equivalence, every rejected
// one must leave the network untouched. The high bit of steps appends
// an add with an IPv6 prefix to every document, which must be rejected.
func FuzzDeltaEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(42), uint8(5))
	f.Add(int64(7), uint8(0x83))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := buildBase(t)
		e, err := NewEngine(n, randomTrace(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		wrongFamily := steps&0x80 != 0
		for step := 0; step < int(steps%6); step++ {
			before := encodeNet(t, n)
			ops := randomOps(rng, n)
			if wrongFamily {
				spec := netmodel.RuleSpec{Device: int32(rng.Intn(len(n.Devices))), Table: "fib", Action: "drop",
					Match: netmodel.MatchSpec{Dst: "2001:db8::/32"}}
				ops = append(ops, Op{Op: OpAdd, Spec: &spec})
			}
			if _, err := e.Apply(Document{Ops: ops}); err != nil {
				if !bytes.Equal(before, encodeNet(t, n)) {
					t.Fatal("failed apply changed the network")
				}
				continue
			}
			if wrongFamily {
				t.Fatal("a document adding an IPv6 prefix to an IPv4 network was accepted")
			}
			assertEngineEquivalent(t, e)
		}
	})
}
