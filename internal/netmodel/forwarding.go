package netmodel

import (
	"encoding/binary"
	"net/netip"
	"slices"

	"yardstick/internal/hdr"
)

// This file holds the per-device forwarding index: what a flood and a
// traceroute ask of a device, answered without walking its rule tables.
// Both halves are derived from the disjoint match sets and owned by the
// Network.
//
// A flood (dataplane.Reach) records what happened per location, never
// per rule, so it needs to know only which packets a device treats
// alike: its action classes. Match sets are disjoint, so intersecting
// the arriving set with a class's union equals the union of the per-rule
// intersections, and one Intersect per class stands where one per rule
// stood. Class unions are BDD work — on a destination-only device one
// walk of its sorted prefixes per class (buildForwarding) — so a
// device's classes are built on the first flood through it (inside
// whatever guarded stage is running),
// published only when complete, dropped by Mutation.Commit for the
// devices it touched and by SetAction for the rule's device, and carried
// across Clone by node index.
//
// A traceroute asks which FIB rule handles one destination. On a device
// whose FIB rules each match a distinct destination prefix and nothing
// else, that is a longest-prefix probe — a binary search of the device's
// prefix-ordered rules at each prefix length the device has; any other
// table keeps the first-match walk. The shape and the prefix order are
// read off the table where its match sets are derived (fibDeriver), at
// freeze time and again by Commit — no BDD work of their own, so they are
// not lazy. Commit rebuilds them for the devices it touched only: every
// other device keeps its prefixes and shape and has its IDs compacted,
// one integer store per rule.

// ActionClass is the FIB rules of one device that do the same thing to a
// packet: same Kind, same OutIfaces sequence, same Transform value.
type ActionClass struct {
	Action Action
	// Match is the union of the members' disjoint match sets.
	Match hdr.Set
}

// Forwarding is a device's behaviour by action class.
type Forwarding struct {
	// HasACL reports an ingress ACL; Permit is then the union of its
	// permit entries' match sets, and everything outside it is dropped
	// (by a deny entry or by the implicit deny — a flood does not tell
	// them apart).
	HasACL bool
	Permit hdr.Set
	// Classes are ordered by their first member in FIB order; Routed is
	// the union of their match sets — what the FIB has a rule for.
	Classes []ActionClass
	Routed  hdr.Set
}

// devIndex is the forwarding index of one device. Its slices are
// immutable values: Commit replaces them, never edits them, so clones
// share them.
type devIndex struct {
	// dstOnly: every FIB rule matches a distinct, valid destination
	// prefix and no other field. lens then lists the prefix lengths
	// present (hdr.PrefixKey lengths), longest first.
	dstOnly bool
	lens    []int
	// byPrefix holds the FIB rules that match a destination prefix in
	// prefix order (comparePrefixes; a repeated prefix's rules by ID),
	// and pfx[i] is byPrefix[i]'s masked prefix. For a destination-only
	// FIB that is every rule, the order in which it derives, and the list
	// its class walks read.
	byPrefix []RuleID
	pfx      []hdr.PrefixKey
	// fwd is nil until the first flood through the device.
	fwd *Forwarding
}

// find returns the position of prefix p in the index. It is the binary
// search of every lookup, written out so the comparison inlines.
func (ix *devIndex) find(p hdr.PrefixKey) (int, bool) {
	lo, hi := 0, len(ix.pfx)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.pfx[m].Less(p) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ix.pfx) && ix.pfx[lo] == p
}

// sameFamily reports whether an address belongs to the network's family.
func (n *Network) sameFamily(a netip.Addr) bool {
	return a.IsValid() && a.Is4() == (n.Family() == hdr.V4)
}

// FIBLookup resolves the FIB rule that handles destination dst on dev by
// longest-prefix match. indexed is false when the device's FIB is not
// destination-only and the caller must walk the table; when it is true,
// a nil rule means no route.
func (n *Network) FIBLookup(dev DeviceID, dst netip.Addr) (r *Rule, indexed bool) {
	if !n.matchSetsDone {
		panic("netmodel: FIBLookup before ComputeMatchSets")
	}
	ix := &n.index[dev]
	if !ix.dstOnly {
		return nil, false
	}
	if !n.sameFamily(dst) {
		return nil, true
	}
	host := hdr.KeyOf(netip.PrefixFrom(dst, dst.BitLen()))
	for _, l := range ix.lens {
		if i, ok := ix.find(host.Truncate(l)); ok {
			return n.Rules[ix.byPrefix[i]], true
		}
	}
	return nil, true
}

// Forwarding returns dev's action classes, building them on first use.
// The build is BDD work and may unwind with a cancellation panic; nothing is kept of an unfinished build, so the next call starts
// over.
func (n *Network) Forwarding(dev DeviceID) *Forwarding {
	if !n.matchSetsDone {
		panic("netmodel: Forwarding before ComputeMatchSets")
	}
	ix := &n.index[dev]
	if ix.fwd == nil {
		ix.fwd = n.buildForwarding(n.Devices[dev], ix)
	}
	return ix.fwd
}

// buildForwarding builds a device's classes. The space is fresh here —
// nothing has asked for these unions before — so a destination-only FIB
// builds each class, and Routed, by one LongestMatch walk of the
// device's sorted prefixes with the class's members flagged: a class is
// exactly the destinations whose longest matching prefix is a member,
// and the walk makes its diagram node by node with no apply step. Any
// other FIB, and an ACL's Permit, fold the members' match sets.
func (n *Network) buildForwarding(d *Device, ix *devIndex) *Forwarding {
	f := &Forwarding{HasACL: len(d.ACL) > 0}
	if f.HasACL {
		var permit []hdr.Set
		for _, id := range d.ACL {
			if r := n.Rules[id]; !r.Deny {
				permit = append(permit, r.match)
			}
		}
		f.Permit = n.Space.UnionAll(permit)
	}
	class, byAction := n.groupByAction(f, d)
	if !ix.dstOnly {
		n.foldClasses(f, d, class)
		return f
	}

	at := make([]int, len(ix.byPrefix)) // the class of each prefix
	var key []byte
	for k, id := range ix.byPrefix {
		key = n.Rules[id].Action.appendKey(key[:0])
		at[k] = byAction[string(key)]
	}
	flag := make([]bool, len(at))
	for c := range f.Classes {
		for k := range flag {
			flag[k] = at[k] == c
		}
		f.Classes[c].Match = n.Space.LongestMatch(ix.pfx, flag)
	}
	for k := range flag {
		flag[k] = true
	}
	f.Routed = n.Space.LongestMatch(ix.pfx, flag)
	return f
}

// groupByAction appends d's action classes to f in order of first
// appearance in the FIB, with their Match unset; class[i] is the class
// of d.FIB[i], and byAction maps an action's key (appendKey) to its
// class.
func (n *Network) groupByAction(f *Forwarding, d *Device) (class []int, byAction map[string]int) {
	class = make([]int, len(d.FIB))
	byAction = make(map[string]int)
	var key []byte
	for i, id := range d.FIB {
		r := n.Rules[id]
		key = r.Action.appendKey(key[:0])
		c, ok := byAction[string(key)]
		if !ok {
			c = len(f.Classes)
			byAction[string(key)] = c
			f.Classes = append(f.Classes, ActionClass{Action: r.Action})
		}
		class[i] = c
	}
	return class, byAction
}

// foldClasses sets each class's Match, and Routed, by folding the
// members' match sets pairwise (UnionAll), members in destination-prefix
// order: neighbouring prefixes make small unions, and the same runs of
// prefixes recur from device to device, so the op cache answers many of
// the folds. It is right for any FIB.
func (n *Network) foldClasses(f *Forwarding, d *Device, class []int) {
	order := make([]int, len(d.FIB))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := comparePrefixes(n.Rules[d.FIB[a]].Match.DstPrefix, n.Rules[d.FIB[b]].Match.DstPrefix); c != 0 {
			return c
		}
		return a - b // a repeated or absent prefix: FIB order
	})
	members := make([][]hdr.Set, len(f.Classes))
	for _, i := range order {
		if m := n.Rules[d.FIB[i]].match; !m.IsEmpty() {
			members[class[i]] = append(members[class[i]], m)
		}
	}
	routed := make([]hdr.Set, len(f.Classes))
	for c := range f.Classes {
		f.Classes[c].Match = n.Space.UnionAll(members[c])
		routed[c] = f.Classes[c].Match
	}
	f.Routed = n.Space.UnionAll(routed)
}

// appendKey appends a byte string that is equal for two actions exactly
// when they do the same thing to a packet.
func (a Action) appendKey(b []byte) []byte {
	b = append(b, byte(a.Kind))
	b = binary.AppendUvarint(b, uint64(len(a.OutIfaces)))
	for _, out := range a.OutIfaces {
		b = binary.LittleEndian.AppendUint32(b, uint32(out))
	}
	if tr := a.Transform; tr != nil {
		var flags byte = 1
		if tr.RewriteDst {
			flags |= 2
		}
		if tr.RewriteSrc {
			flags |= 4
		}
		b = append(b, flags)
		b = append(b, tr.Addr.AsSlice()...)
	}
	return b
}

// Clone deep-copies an action.
func (a Action) Clone() Action {
	a.OutIfaces = append([]IfaceID(nil), a.OutIfaces...)
	if a.Transform != nil {
		tr := *a.Transform
		a.Transform = &tr
	}
	return a
}

// SetAction replaces the action of a rule on a frozen network. Match
// fields are untouched, so every match set stays valid; the device's
// action classes are dropped and rebuilt by the next flood, and the
// rule's encoding by the next EncodeJSON, and the fingerprint marks past
// the rule by the next Digest. It is how fault injection
// (internal/faults) rewires a rule and puts it back; writing Rule.Action
// directly would leave both stale.
func (n *Network) SetAction(id RuleID, a Action) {
	r := n.Rules[id]
	r.Action = a
	if n.matchSetsDone {
		n.index[r.Device].fwd = nil
		r.enc = ""
		n.encFull.Store(false)
		n.dropMarks(int(id))
	}
}
