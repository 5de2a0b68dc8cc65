package netmodel_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/bgp"
	"yardstick/internal/core"
	"yardstick/internal/delta"
	"yardstick/internal/faults"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// referenceFingerprint is the fingerprint's definition: the sha256 of
// the struct-based reference encoding, which keeps no state.
func referenceFingerprint(t testing.TB, n *netmodel.Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := n.EncodeJSONReference(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkFingerprint holds core.Fingerprint, which resumes from the
// network's marks, to the reference, and returns it.
func checkFingerprint(t testing.TB, step string, n *netmodel.Network) string {
	t.Helper()
	got, want := core.Fingerprint(n), referenceFingerprint(t, n)
	if got != want {
		t.Fatalf("%s: fingerprint %s, reference %s", step, got, want)
	}
	return got
}

// commit applies edit as one mutation of n.
func commit(t testing.TB, n *netmodel.Network, edit func(m *netmodel.Mutation) error) {
	t.Helper()
	m := n.BeginMutation()
	if err := edit(m); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
}

// redef returns rule id's definition with its action replaced.
func redef(n *netmodel.Network, id netmodel.RuleID, a netmodel.Action) netmodel.RuleDef {
	r := n.Rule(id)
	return netmodel.RuleDef{Device: r.Device, Table: r.Table, Match: r.Match, Action: a, Origin: r.Origin, Deny: r.Deny}
}

var drop = netmodel.Action{Kind: netmodel.ActDrop}

// TestFingerprintMarksEdgeCases drives a network with marks past the
// first through the changes that sit on a mark's edge, checking the
// fingerprint against the reference after each and the marks a change
// must keep.
func TestFingerprintMarksEdgeCases(t *testing.T) {
	const every = netmodel.MarkEvery
	fresh := func(t *testing.T, rules int) *netmodel.Network {
		n := netmodel.MarkedFIB(rules)
		checkFingerprint(t, "fresh", n)
		if got, want := n.Marks(), rules/every+1; got != want {
			t.Fatalf("a first fingerprint of %d rules recorded %d marks, want %d", rules, got, want)
		}
		return n
	}
	t.Run("modify rule 0", func(t *testing.T) {
		n := fresh(t, 2*every+7)
		commit(t, n, func(m *netmodel.Mutation) error { return m.Modify(0, redef(n, 0, drop)) })
		if n.Marks() != 1 {
			t.Fatalf("a change at rule 0 kept %d marks, want mark 0 alone", n.Marks())
		}
		checkFingerprint(t, "modified", n)
	})
	t.Run("remove the last rule", func(t *testing.T) {
		n := fresh(t, 2*every+1)
		commit(t, n, func(m *netmodel.Mutation) error { return m.Remove(netmodel.RuleID(2 * every)) })
		if n.Marks() != 3 {
			t.Fatalf("removing rule %d kept %d marks, want 3", 2*every, n.Marks())
		}
		checkFingerprint(t, "removed", n)
		commit(t, n, func(m *netmodel.Mutation) error { return m.Remove(netmodel.RuleID(2*every - 1)) })
		if n.Marks() != 2 {
			t.Fatalf("removing rule %d kept %d marks, want 2", 2*every-1, n.Marks())
		}
		checkFingerprint(t, "removed again", n)
	})
	t.Run("remove every rule", func(t *testing.T) {
		n := fresh(t, every+5)
		commit(t, n, func(m *netmodel.Mutation) error {
			for id := range n.Rules {
				if err := m.Remove(netmodel.RuleID(id)); err != nil {
					return err
				}
			}
			return nil
		})
		checkFingerprint(t, "no rules", n) // "rules": null
		commit(t, n, func(m *netmodel.Mutation) error {
			return m.Add(netmodel.RuleDef{Device: 0, Table: netmodel.TableFIB, Match: netmodel.MatchAll(), Action: drop, Origin: netmodel.OriginStatic})
		})
		checkFingerprint(t, "one rule again", n)
	})
	t.Run("add at a multiple of the spacing", func(t *testing.T) {
		n := fresh(t, 2*every)
		commit(t, n, func(m *netmodel.Mutation) error {
			return m.Add(netmodel.RuleDef{Device: 1, Table: netmodel.TableFIB, Match: netmodel.MatchDst(netip.MustParsePrefix("172.16.0.0/12")), Action: drop, Origin: netmodel.OriginStatic})
		})
		if n.Marks() != 3 {
			t.Fatalf("an addition after rule %d kept %d marks, want 3", 2*every, n.Marks())
		}
		checkFingerprint(t, "added", n)
	})
	t.Run("SetAction on an early rule and back", func(t *testing.T) {
		n := fresh(t, 2*every+3)
		before := core.Fingerprint(n)
		old := n.Rule(5).Action
		n.SetAction(5, drop)
		if n.Marks() != 1 {
			t.Fatalf("SetAction on rule 5 kept %d marks, want 1", n.Marks())
		}
		if checkFingerprint(t, "rewired", n) == before {
			t.Fatal("a rewired rule left the fingerprint as it was")
		}
		n.SetAction(5, old)
		if checkFingerprint(t, "put back", n) != before {
			t.Fatal("putting the action back did not restore the fingerprint")
		}
	})
	t.Run("clone then mutate both", func(t *testing.T) {
		n := fresh(t, 2*every+9)
		c := n.Clone()
		if c.Marks() != 0 {
			t.Fatalf("the clone carries %d marks", c.Marks())
		}
		checkFingerprint(t, "clone", c)
		// Each copy appends marks past a dropped one: neither may write
		// into the other's.
		commit(t, n, func(m *netmodel.Mutation) error { return m.Modify(every+1, redef(n, every+1, drop)) })
		commit(t, c, func(m *netmodel.Mutation) error { return m.Remove(every - 2) })
		checkFingerprint(t, "original", n)
		checkFingerprint(t, "clone", c)
		commit(t, c, func(m *netmodel.Mutation) error { return m.Remove(3) })
		checkFingerprint(t, "clone again", c)
		checkFingerprint(t, "original again", n)
	})
	t.Run("cancelled commit", func(t *testing.T) {
		n := fresh(t, 2*every+11)
		before := core.Fingerprint(n)
		m := n.BeginMutation()
		if err := m.Remove(every + 4); err != nil {
			t.Fatal(err)
		}
		if err := m.Add(netmodel.RuleDef{Device: 2, Table: netmodel.TableFIB, Match: netmodel.MatchDst(netip.MustParsePrefix("192.168.7.0/24")), Action: drop, Origin: netmodel.OriginStatic}); err != nil {
			t.Fatal(err)
		}
		restore := n.Space.WatchContext(faults.CancelAtOp(n.Space.Manager(), 1))
		err := bdd.Guard(func() { m.Commit() })
		restore()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Commit cancelled at its first op: err = %v", err)
		}
		if n.Marks() != 3 {
			t.Fatalf("the cancelled commit left %d marks, want 3", n.Marks())
		}
		if checkFingerprint(t, "after the cancelled commit", n) != before {
			t.Fatal("a cancelled commit changed the fingerprint")
		}
	})
}

// TestFingerprintFlapStream commits a seeded stream of BGP flaps to
// regional-m (the benchmark's regional network), each as the rule-level
// delta a daemon's PATCH carries, and holds the fingerprint to the
// reference after every one. A withdrawal removes the prefix's routes
// from every device, all through the ID space, and rehashes from mark 0;
// a re-announcement appends them, and its fingerprint resumes near the
// tail.
func TestFingerprintFlapStream(t *testing.T) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8})
	if err != nil {
		t.Fatal(err)
	}
	net := rg.Net.Clone()
	checkFingerprint(t, "initial", net)
	replay := bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
	resumed := 0
	events := bgp.GenFlaps(1, 24, len(rg.Origins))
	for i, ev := range events {
		if err := replay.Toggle(ev); err != nil {
			t.Fatal(err)
		}
		next, err := replay.Build()
		if err != nil {
			t.Fatal(err)
		}
		ops, err := delta.Diff(net, next)
		if err != nil {
			t.Fatal(err)
		}
		if err := delta.ApplyOps(net, ops); err != nil {
			t.Fatal(err)
		}
		if net.Marks() > 1 {
			resumed++
		}
		checkFingerprint(t, fmt.Sprintf("event %d", i), net)
	}
	if resumed < len(events)/4 {
		t.Fatalf("only %d of %d fingerprints resumed past mark 0", resumed, len(events))
	}
}

// FuzzFingerprintMarks reads ops three bytes at a time — a kind and a
// 16-bit argument — and drives removes, modifies (of the action or the
// prefix), adds, SetAction rewires and clones through a network that
// holds marks past the first. Every commit, rewire and clone is followed
// by a fingerprint held to the reference; the networks a clone left
// behind must keep theirs.
func FuzzFingerprintMarks(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 0, 0})
	f.Add([]byte{3, 0, 1, 4, 0, 0, 1, 2, 0, 4, 0, 0, 6, 0, 0, 0, 0, 9, 4, 0, 0})
	f.Add([]byte{5, 0, 7, 2, 1, 255, 3, 1, 2, 4, 0, 0, 5, 0, 7})
	f.Add([]byte{6, 0, 0, 1, 2, 0, 4, 0, 0, 0, 4, 100, 3, 0, 0, 4, 0, 0})
	base := netmodel.MarkedFIB(2*netmodel.MarkEvery + 100)
	f.Fuzz(func(t *testing.T, ops []byte) {
		n := base.Clone()
		type left struct {
			n  *netmodel.Network
			fp string
		}
		var behind []left
		var mut *netmodel.Mutation
		used := map[netmodel.RuleID]bool{}
		flush := func(step int) {
			if mut == nil {
				return
			}
			if _, err := mut.Commit(); err != nil {
				t.Fatal(err)
			}
			mut, used = nil, map[netmodel.RuleID]bool{}
			checkFingerprint(t, fmt.Sprintf("commit at op %d", step), n)
		}
		// forwardOrDrop is the other action of the two a rule of dev takes.
		forwardOrDrop := func(dev netmodel.DeviceID, a netmodel.Action) netmodel.Action {
			if a.Kind == netmodel.ActDrop {
				return netmodel.Action{Kind: netmodel.ActForward, OutIfaces: n.Device(dev).Ifaces[:1]}
			}
			return drop
		}
		prefix := func(x int) netip.Prefix {
			return netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16 + byte(x>>12), byte(x >> 4), byte(x << 4)}), 28)
		}
		for i := 0; i+3 <= len(ops) && i < 3*64; i += 3 {
			kind, x := ops[i]%7, int(ops[i+1])<<8|int(ops[i+2])
			id := netmodel.RuleID(x % max(1, len(n.Rules)))
			if kind < 3 && (len(n.Rules) == 0 || used[id]) {
				continue
			}
			if kind < 4 && mut == nil {
				mut = n.BeginMutation()
			}
			var err error
			switch kind {
			case 0:
				err = mut.Remove(id)
				used[id] = true
			case 1:
				r := n.Rule(id)
				err = mut.Modify(id, redef(n, id, forwardOrDrop(r.Device, r.Action)))
				used[id] = true
			case 2:
				def := redef(n, id, n.Rule(id).Action)
				def.Match = netmodel.MatchDst(prefix(x))
				err = mut.Modify(id, def)
				used[id] = true
			case 3:
				dev := netmodel.DeviceID(x % 3)
				err = mut.Add(netmodel.RuleDef{Device: dev, Table: netmodel.TableFIB, Match: netmodel.MatchDst(prefix(x)),
					Action: forwardOrDrop(dev, netmodel.Action{Kind: netmodel.ActDrop}), Origin: netmodel.OriginStatic})
			case 4:
				flush(i / 3)
			case 5:
				flush(i / 3)
				if len(n.Rules) > 0 {
					id = netmodel.RuleID(x % len(n.Rules))
					r := n.Rule(id)
					n.SetAction(id, forwardOrDrop(r.Device, r.Action))
					checkFingerprint(t, fmt.Sprintf("SetAction at op %d", i/3), n)
				}
			case 6:
				flush(i / 3)
				behind = append(behind, left{n, checkFingerprint(t, fmt.Sprintf("before the clone at op %d", i/3), n)})
				n = n.Clone()
				checkFingerprint(t, fmt.Sprintf("clone at op %d", i/3), n)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		flush(len(ops) / 3)
		for k, l := range behind {
			if checkFingerprint(t, fmt.Sprintf("network left by clone %d", k), l.n) != l.fp {
				t.Fatalf("network left by clone %d changed its fingerprint", k)
			}
		}
	})
}
