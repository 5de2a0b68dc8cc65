package delta

import (
	"fmt"
	"net/netip"
	"slices"

	"yardstick/internal/netmodel"
)

// Diff computes a delta document's operations transforming old's
// forwarding state into next's. The two networks must share a topology
// (same device, interface, and link structure — e.g. next was rebuilt by
// a control-plane replay over old.CloneTopology()), because rule specs
// reference devices and interfaces by index.
//
// FIB rules are matched by their match fields, which a FIB keys
// uniquely (one route per prefix): a match present on both sides with a
// different action or origin becomes a modify, one side only becomes a
// remove or add. Should a table carry duplicate matches (nothing in the
// model forbids it), the diff falls back to replacing that device's
// whole table — correct, just coarser. ACLs are order-sensitive, so any
// difference in an ACL's sequence replaces the device's ACL wholesale.
//
// Remove/modify IDs refer to old's universe; ops are emitted in device
// order and are valid as one atomic document against old.
func Diff(old, next *netmodel.Network) ([]Op, error) {
	if old.Family() != next.Family() {
		return nil, fmt.Errorf("delta: diff across families")
	}
	if len(old.Devices) != len(next.Devices) || len(old.Ifaces) != len(next.Ifaces) {
		return nil, fmt.Errorf("delta: diff across different topologies")
	}
	for i, d := range old.Devices {
		if next.Devices[i].Name != d.Name {
			return nil, fmt.Errorf("delta: device %d name mismatch (%q vs %q)", i, d.Name, next.Devices[i].Name)
		}
	}
	var ops []Op
	for i := range old.Devices {
		dev := netmodel.DeviceID(i)
		ops = append(ops, diffACL(old, next, dev)...)
		fibOps, err := diffFIB(old, next, dev)
		if err != nil {
			return nil, err
		}
		ops = append(ops, fibOps...)
	}
	return ops, nil
}

// sameRule reports whether two rules have the same definition — whether
// their wire specs (RuleSpecOf) render the same values, without rendering
// them: device, table, match, action kind, out-interfaces (rendered only
// for a forward), transform, origin and deny. A spec renders every
// negative protocol as none (any protocol), and a port range as its two
// bounds unless it is the full range.
func sameRule(a, b *netmodel.Rule) bool {
	am, bm := a.Match, b.Match
	if a.Device != b.Device || (a.Table == netmodel.TableACL) != (b.Table == netmodel.TableACL) ||
		a.Origin != b.Origin || a.Deny != b.Deny ||
		!samePrefix(am.DstPrefix, bm.DstPrefix) || !samePrefix(am.SrcPrefix, bm.SrcPrefix) ||
		am.Proto != bm.Proto && (am.Proto >= 0 || bm.Proto >= 0) ||
		am.DstPortLo != bm.DstPortLo || am.DstPortHi != bm.DstPortHi ||
		am.SrcPortLo != bm.SrcPortLo || am.SrcPortHi != bm.SrcPortHi {
		return false
	}
	ak, bk := a.Action.Kind, b.Action.Kind
	if ak != bk && (ak <= netmodel.ActDeliver || bk <= netmodel.ActDeliver) {
		return false // a spec names only these kinds
	}
	if ak == netmodel.ActForward && !slices.Equal(a.Action.OutIfaces, b.Action.OutIfaces) {
		return false
	}
	at, bt := a.Action.Transform, b.Action.Transform
	return at == bt || (at != nil && bt != nil && *at == *bt)
}

// samePrefix compares prefixes as a spec renders them: every invalid
// prefix is the empty string.
func samePrefix(a, b netip.Prefix) bool {
	return a == b || (!a.IsValid() && !b.IsValid())
}

// diffACL replaces a device's ACL wholesale when the sequences differ.
func diffACL(old, next *netmodel.Network, dev netmodel.DeviceID) []Op {
	oldACL := old.Device(dev).ACL
	nextACL := next.Device(dev).ACL
	same := len(oldACL) == len(nextACL)
	if same {
		for i := range oldACL {
			if !sameRule(old.Rule(oldACL[i]), next.Rule(nextACL[i])) {
				same = false
				break
			}
		}
	}
	if same {
		return nil
	}
	ops := make([]Op, 0, len(oldACL)+len(nextACL))
	for _, id := range oldACL {
		ops = append(ops, Op{Op: OpRemove, Rule: id})
	}
	for _, id := range nextACL {
		spec := next.RuleSpecOf(id)
		ops = append(ops, Op{Op: OpAdd, Spec: &spec})
	}
	return ops
}

func diffFIB(old, next *netmodel.Network, dev netmodel.DeviceID) ([]Op, error) {
	oldFIB := old.Device(dev).FIB
	nextFIB := next.Device(dev).FIB
	oldBy := make(map[netmodel.Match]netmodel.RuleID, len(oldFIB))
	nextBy := make(map[netmodel.Match]netmodel.RuleID, len(nextFIB))
	dup := false
	for _, id := range oldFIB {
		m := old.Rule(id).Match
		if _, seen := oldBy[m]; seen {
			dup = true
		}
		oldBy[m] = id
	}
	for _, id := range nextFIB {
		m := next.Rule(id).Match
		if _, seen := nextBy[m]; seen {
			dup = true
		}
		nextBy[m] = id
	}
	if dup {
		// Ambiguous keying: replace the table.
		ops := make([]Op, 0, len(oldFIB)+len(nextFIB))
		for _, id := range oldFIB {
			ops = append(ops, Op{Op: OpRemove, Rule: id})
		}
		for _, id := range nextFIB {
			spec := next.RuleSpecOf(id)
			ops = append(ops, Op{Op: OpAdd, Spec: &spec})
		}
		return ops, nil
	}
	var ops []Op
	// Removals and modifications, in old table order.
	for _, id := range oldFIB {
		m := old.Rule(id).Match
		nid, ok := nextBy[m]
		if !ok {
			ops = append(ops, Op{Op: OpRemove, Rule: id})
			continue
		}
		if !sameRule(old.Rule(id), next.Rule(nid)) {
			spec := next.RuleSpecOf(nid)
			ops = append(ops, Op{Op: OpModify, Rule: id, Spec: &spec})
		}
	}
	// Additions, in next table order.
	for _, id := range nextFIB {
		if _, ok := oldBy[next.Rule(id).Match]; !ok {
			spec := next.RuleSpecOf(id)
			ops = append(ops, Op{Op: OpAdd, Spec: &spec})
		}
	}
	return ops, nil
}
