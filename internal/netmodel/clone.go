package netmodel

import (
	"net/netip"

	"yardstick/internal/hdr"
)

// Clone returns an O(size) deep copy of the network over a Clone of its
// header space. Because the cloned space holds the same BDD nodes at the
// same indices (hdr.Space.Clone), every derived set — each rule's raw
// and disjoint match set, the match memo, the action classes built so
// far — is carried into the copy by node index instead of being
// re-derived from configuration. A frozen
// network (ComputeMatchSets done) clones into a frozen network whose
// match sets are bit-identical to the original's. The encoding cache
// and the fingerprint marks (json.go) are not carried: replicas
// evaluate, they do not encode, a clone whose fields are edited must
// not inherit stale bytes, and one that shared the marks' backing array
// could append into the original's.
//
// The copy is independent afterwards: mutating either network's rules or
// growing either space is invisible to the other. A context the space
// watches is not carried (see hdr.Space.Clone).
//
// Cloning a quiescent network only reads it, so several replicas may be
// cloned concurrently as long as nothing mutates the original.
func (n *Network) Clone() *Network {
	cs := n.Space.Clone()
	// Re-point a set derived in n.Space to the cloned space: same node
	// index, same header set (the clone invariant).
	carry := func(s hdr.Set) hdr.Set {
		if s.Space() == nil {
			return s // zero Set (rule not frozen yet)
		}
		return cs.FromNode(s.Node())
	}

	out := &Network{
		Space:         cs,
		Devices:       make([]*Device, len(n.Devices)),
		Ifaces:        make([]*Interface, len(n.Ifaces)),
		Rules:         make([]*Rule, len(n.Rules)),
		byName:        make(map[string]DeviceID, len(n.byName)),
		matchSetsDone: n.matchSetsDone,
	}
	for name, id := range n.byName {
		out.byName[name] = id
	}
	for i, d := range n.Devices {
		nd := *d
		nd.Ifaces = append([]IfaceID(nil), d.Ifaces...)
		nd.Loopbacks = append([]netip.Prefix(nil), d.Loopbacks...)
		nd.Subnets = append([]netip.Prefix(nil), d.Subnets...)
		nd.ACL = append([]RuleID(nil), d.ACL...)
		nd.FIB = append([]RuleID(nil), d.FIB...)
		out.Devices[i] = &nd
	}
	for i, ifc := range n.Ifaces {
		ni := *ifc
		out.Ifaces[i] = &ni
	}
	for i, r := range n.Rules {
		nr := *r
		nr.Action = r.Action.Clone()
		nr.raw = carry(r.raw)
		nr.match = carry(r.match)
		nr.enc = "" // a replica that encodes fills its own cache
		out.Rules[i] = &nr
	}
	if n.index != nil {
		// The table shapes, prefix orders and class numberings are
		// immutable values (Commit and SetAction replace, never edit
		// them) and are shared; built action classes are carried by node
		// index like the match sets.
		out.index = make([]devIndex, len(n.index))
		for i, ix := range n.index {
			if f := ix.fwd; f != nil {
				nf := &Forwarding{HasACL: f.HasACL, Permit: carry(f.Permit), Routed: carry(f.Routed),
					Classes: make([]ActionClass, len(f.Classes))}
				for c, cl := range f.Classes {
					nf.Classes[c] = ActionClass{Action: cl.Action.Clone(), Match: carry(cl.Match)}
				}
				ix.fwd = nf
			}
			out.index[i] = ix
		}
	}
	if n.matchMemo != nil {
		out.matchMemo = make(map[Match]hdr.Set, len(n.matchMemo))
		for k, v := range n.matchMemo {
			out.matchMemo[k] = carry(v)
		}
	}
	return out
}
