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
// A flood's classes and the next-hop contract checks (FIBNextHops) both
// read a device's FIB rules grouped by what they do to a packet: the
// action-class numbering (classIndex). It is Go values only — no BDD
// work, no rule pointers — built on the first question that needs it,
// dropped with the classes and shared by Clone as is. It is lazy, not
// built at freeze time, because a flap's Commit touches nearly every
// device, and a device nobody asks about afterwards would pay for a
// numbering it never reads.
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
	// cls is nil until a class build or a next-hop lookup asks for it,
	// fwd until the first flood through the device; Commit and
	// SetAction drop the two together.
	cls *classIndex
	fwd *Forwarding
}

// classIndex numbers a device's action classes, in order of their first
// member in FIB order: at[k] is the class of byPrefix[k], fib[i] that of
// the device's FIB[i], and a class c's members all do action[c], which
// takes a packet to the devices hops[c] — sorted, without repeats, -1
// for an external interface. It holds no rule pointer and no set, and it
// is an immutable value: Commit and SetAction drop it, never edit it, so
// clones share it.
type classIndex struct {
	at     []int32
	fib    []int32
	action []Action
	hops   [][]DeviceID
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

// last returns the position of prefix p in the index; of a repeated
// prefix's run, which is in ID order, the last.
func (ix *devIndex) last(p hdr.PrefixKey) (int, bool) {
	i, ok := ix.find(p)
	if !ok {
		return 0, false
	}
	for i+1 < len(ix.pfx) && ix.pfx[i+1] == p {
		i++
	}
	return i, true
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

// FIBKey returns the key FIBNextHops looks prefix p up by, once per
// prefix however many devices are asked. ok is false for an invalid
// prefix or one of the other address family: no FIB rule matches it.
func (n *Network) FIBKey(p netip.Prefix) (key hdr.PrefixKey, ok bool) {
	if !n.sameFamily(p.Addr()) || !p.IsValid() {
		return hdr.PrefixKey{}, false
	}
	return hdr.KeyOf(p.Masked()), true
}

// FIBNextHops answers a next-hop contract's question about dev's FIB
// rule for the destination prefix with the given key (FIBKey) — the
// rule FIBRuleFor returns — from the device's class numbering: the
// kind of the rule's action and the devices its out-interfaces lead to,
// sorted, without repeats, -1 for an external interface. ok is false
// when the FIB has no rule for the prefix. hops is shared by every rule
// of the class: read it, never write it.
func (n *Network) FIBNextHops(dev DeviceID, key hdr.PrefixKey) (kind ActionKind, hops []DeviceID, ok bool) {
	if !n.matchSetsDone {
		panic("netmodel: FIBNextHops before ComputeMatchSets")
	}
	ix := &n.index[dev]
	i, ok := ix.last(key)
	if !ok {
		return 0, nil, false
	}
	cls := n.classes(n.Devices[dev], ix)
	c := cls.at[i]
	return cls.action[c].Kind, cls.hops[c], true
}

// classes returns d's class numbering, building it on first use.
func (n *Network) classes(d *Device, ix *devIndex) *classIndex {
	if ix.cls == nil {
		ix.cls = n.buildClasses(d, ix)
	}
	return ix.cls
}

// buildClasses numbers d's action classes: one pass over the FIB in
// its order, which fixes the numbering, then one over the prefix
// order, where every action is already known.
func (n *Network) buildClasses(d *Device, ix *devIndex) *classIndex {
	c := &classIndex{fib: make([]int32, len(d.FIB)), at: make([]int32, len(ix.byPrefix))}
	byAction := make(map[string]int32)
	var key []byte
	classOf := func(id RuleID) int32 {
		a := n.Rules[id].Action
		key = a.appendKey(key[:0])
		k, ok := byAction[string(key)]
		if !ok {
			k = int32(len(c.action))
			byAction[string(key)] = k
			c.action = append(c.action, a)
			c.hops = append(c.hops, n.hopDevices(a))
		}
		return k
	}
	for i, id := range d.FIB {
		c.fib[i] = classOf(id)
	}
	for k, id := range ix.byPrefix {
		c.at[k] = classOf(id)
	}
	return c
}

// hopDevices returns the devices an action's out-interfaces lead to,
// sorted, without repeats, -1 for an external interface.
func (n *Network) hopDevices(a Action) []DeviceID {
	hops := make([]DeviceID, 0, len(a.OutIfaces))
	for _, out := range a.OutIfaces {
		d := DeviceID(-1)
		if peer := n.Ifaces[out].Peer; peer != NoIface {
			d = n.Ifaces[peer].Device
		}
		hops = append(hops, d)
	}
	slices.Sort(hops)
	return slices.Compact(hops)
}

// buildForwarding builds a device's classes over its class numbering.
// The space is fresh here — nothing has asked for these unions
// before — so a destination-only FIB
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
	cls := n.classes(d, ix)
	f.Classes = make([]ActionClass, len(cls.action))
	for c, a := range cls.action {
		f.Classes[c].Action = a
	}
	if !ix.dstOnly {
		n.foldClasses(f, d, cls.fib)
		return f
	}

	flag := make([]bool, len(cls.at))
	for c := range f.Classes {
		for k := range flag {
			flag[k] = cls.at[k] == int32(c)
		}
		f.Classes[c].Match = n.Space.LongestMatch(ix.pfx, flag)
	}
	for k := range flag {
		flag[k] = true
	}
	f.Routed = n.Space.LongestMatch(ix.pfx, flag)
	return f
}

// foldClasses sets each class's Match, and Routed, by folding the
// members' match sets pairwise (UnionAll), members in destination-prefix
// order: neighbouring prefixes make small unions, and the same runs of
// prefixes recur from device to device, so the op cache answers many of
// the folds. It is right for any FIB.
func (n *Network) foldClasses(f *Forwarding, d *Device, class []int32) {
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
// action classes and their numbering are dropped and rebuilt by the
// next flood or lookup, and the
// rule's encoding by the next EncodeJSON, and the fingerprint marks past
// the rule by the next Digest. It is how fault injection
// (internal/faults) rewires a rule and puts it back; writing Rule.Action
// directly would leave both stale.
func (n *Network) SetAction(id RuleID, a Action) {
	r := n.Rules[id]
	r.Action = a
	if n.matchSetsDone {
		n.index[r.Device].cls = nil
		n.index[r.Device].fwd = nil
		r.enc = ""
		n.encFull.Store(false)
		n.dropMarks(int(id))
	}
}
