// Package netmodel defines the network model of the paper's §4.1: a network
// N = (V, I, E, S) of devices, interfaces, links, and forwarding state.
//
// Forwarding state is held per device as ordered rule tables: an optional
// ingress ACL (5-tuple matches, permit/deny) followed by a FIB
// (longest-prefix match on destination IP). After a network's state is
// populated, ComputeMatchSets derives each rule's *disjoint* match set
// M[r] — the packets for which r, and no earlier rule in its table, fires —
// which makes the rule applying to any packet unambiguous (§4.1) and is
// Step 1 of Yardstick's metric computation (§5.2).
package netmodel

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"yardstick/internal/hdr"
)

// DeviceID indexes a device within a Network.
type DeviceID int32

// IfaceID indexes an interface within a Network.
type IfaceID int32

// RuleID indexes a rule within a Network (global across devices).
type RuleID int32

// NoIface marks "no interface": packets injected directly at a device.
const NoIface IfaceID = -1

// Role classifies a device by its place in the topology. Coverage reports
// break down by role (Figure 6 of the paper).
type Role string

// Roles used by the built-in topologies.
const (
	RoleToR    Role = "tor"
	RoleAgg    Role = "agg"
	RoleSpine  Role = "spine"
	RoleHub    Role = "hub"    // regional hub router (§7.1)
	RoleBorder Role = "border" // border router (Figure 1 example)
	RoleLeaf   Role = "leaf"   // leaf router (Figure 1 example)
	RoleCore   Role = "core"   // fat-tree core layer (§8)
)

// RouteOrigin classifies why a rule exists. The case study's gap analysis
// (§7.2) groups untested rules into exactly these categories.
type RouteOrigin string

// Route origins.
const (
	OriginDefault   RouteOrigin = "default"   // the 0.0.0.0/0 route
	OriginConnected RouteOrigin = "connected" // /31s of point-to-point links
	OriginInternal  RouteOrigin = "internal"  // host subnets and loopbacks (BGP)
	OriginWideArea  RouteOrigin = "wide-area" // routes learned from the WAN
	OriginStatic    RouteOrigin = "static"    // other static routes
	OriginACL       RouteOrigin = "acl"       // access-control entries
)

// ActionKind distinguishes rule actions.
type ActionKind uint8

// Rule action kinds.
const (
	ActForward ActionKind = iota // forward out OutIfaces (several = ECMP)
	ActDrop                      // drop the packet (includes null routes)
	ActDeliver                   // deliver locally (loopback / attached subnet)
)

// Transform optionally rewrites a header field when a rule applies.
// Only destination/source IP rewrites are modeled (enough for NAT-style
// one-to-many and many-to-one transformations the paper's §4.3.2 footnote
// discusses).
type Transform struct {
	RewriteDst bool
	RewriteSrc bool
	Addr       netip.Addr
}

// Apply returns s with the transform's rewrites applied; a nil transform
// returns s unchanged.
func (t *Transform) Apply(s hdr.Set) hdr.Set {
	if t == nil {
		return s
	}
	if t.RewriteDst {
		s = s.RewriteDstIP(t.Addr)
	}
	if t.RewriteSrc {
		s = s.RewriteSrcIP(t.Addr)
	}
	return s
}

// Action is what a rule does to matched packets.
type Action struct {
	Kind      ActionKind
	OutIfaces []IfaceID // for ActForward; multiple entries = ECMP/multicast
	Transform *Transform
}

// Match is the match *fields* of a rule as configured. The effective match
// set M[r] additionally excludes packets claimed by earlier rules in the
// same table; it is computed by ComputeMatchSets.
type Match struct {
	DstPrefix netip.Prefix // zero value = any
	SrcPrefix netip.Prefix // zero value = any
	Proto     int32        // -1 = any
	DstPortLo uint16       // [lo,hi]; 0..65535 = any
	DstPortHi uint16
	SrcPortLo uint16
	SrcPortHi uint16
}

// MatchAll returns a Match that matches every packet.
func MatchAll() Match {
	return Match{Proto: -1, DstPortHi: 65535, SrcPortHi: 65535}
}

// MatchDst returns a Match on a destination prefix only.
func MatchDst(p netip.Prefix) Match {
	m := MatchAll()
	m.DstPrefix = p
	return m
}

// Set converts the match fields to a packet set (Figure 5's fromRule,
// before disjointness).
func (mt Match) Set(sp *hdr.Space) hdr.Set {
	s := sp.Full()
	if mt.DstPrefix.IsValid() {
		s = s.Intersect(sp.DstPrefix(mt.DstPrefix))
	}
	if mt.SrcPrefix.IsValid() {
		s = s.Intersect(sp.SrcPrefix(mt.SrcPrefix))
	}
	if mt.Proto >= 0 {
		s = s.Intersect(sp.Proto(uint8(mt.Proto)))
	}
	if mt.DstPortLo != 0 || mt.DstPortHi != 65535 {
		s = s.Intersect(sp.DstPortRange(mt.DstPortLo, mt.DstPortHi))
	}
	if mt.SrcPortLo != 0 || mt.SrcPortHi != 65535 {
		s = s.Intersect(sp.SrcPortRange(mt.SrcPortLo, mt.SrcPortHi))
	}
	return s
}

// TableKind identifies which table of a device a rule lives in.
type TableKind uint8

// Device tables, in pipeline order.
const (
	TableACL TableKind = iota // ingress ACL, evaluated before the FIB
	TableFIB
)

// Rule is one match-action rule (§4.1). MatchSet is valid only after
// Network.ComputeMatchSets; from then on the rule changes through a
// Mutation, or Network.SetAction for its action alone — the network keeps
// state derived from both (forwarding.go, and the encoding and
// fingerprint marks of json.go).
type Rule struct {
	ID      RuleID
	Device  DeviceID
	Table   TableKind
	Match   Match
	Action  Action
	Origin  RouteOrigin
	Deny    bool // ACL entries: true = drop, false = permit
	matchOK bool
	raw     hdr.Set
	match   hdr.Set
	// enc is the rule's element of EncodeJSON's rules array, "" until
	// the frozen network is first encoded (json.go).
	enc string
}

// MatchSet returns the disjoint match set M[r]. It panics if
// ComputeMatchSets has not run.
func (r *Rule) MatchSet() hdr.Set {
	if !r.matchOK {
		panic(fmt.Sprintf("netmodel: MatchSet of rule %d before ComputeMatchSets", r.ID))
	}
	return r.match
}

// Interface is a device port. Point-to-point interfaces carry a /31
// address; edge interfaces (host- or WAN-facing) are marked External.
type Interface struct {
	ID       IfaceID
	Device   DeviceID
	Name     string
	Addr     netip.Prefix // interface address (e.g. 10.0.0.0/31); may be invalid
	Peer     IfaceID      // other end of the link; NoIface for edge interfaces
	External bool         // host- or WAN-facing edge
}

// Device is one router.
type Device struct {
	ID   DeviceID
	Name string
	Role Role
	ASN  uint32

	Ifaces    []IfaceID
	Loopbacks []netip.Prefix // /32 loopback prefixes
	Subnets   []netip.Prefix // directly attached host subnets (ToRs)

	ACL []RuleID // ordered ACL entries (may be empty)
	FIB []RuleID // FIB entries; LPM order fixed by ComputeMatchSets
}

// Network is the full model.
type Network struct {
	Space   *hdr.Space
	Devices []*Device
	Ifaces  []*Interface
	Rules   []*Rule

	byName map[string]DeviceID
	// index holds each device's forwarding index (forwarding.go), by
	// DeviceID; allocated by ComputeMatchSets. Its prefix-ordered rule
	// list is the one structure behind FIBRuleFor and every
	// longest-prefix probe.
	index []devIndex
	// matchMemo caches Match → raw packet set during ComputeMatchSets,
	// so identical matches across devices derive the BDD once.
	matchMemo map[Match]hdr.Set

	matchSetsDone bool
	// generation counts committed mutations (mutate.go).
	generation uint64
	// derived counts the disjoint match sets computed so far, by
	// ComputeMatchSets and every Commit.
	derived int

	// The encoding cache of a frozen network (json.go): encHead holds
	// the document up to the rules array and the state of its open
	// object, and each rule carries its own element. marks are the
	// fingerprint's saved sha256 states (Digest). encMu serializes the
	// lazy fill and guards the marks; encFull says nothing is missing,
	// so a reader that sees it set reads without the lock.
	encMu    sync.Mutex
	encFull  atomic.Bool
	encHead  jsonEnc // w nil: the bytes stay in buf
	encSlabs int     // bytes of rule-encoding slabs allocated since the last repack
	marks    [][]byte
}

// New returns an empty IPv4 network over a fresh header space.
func New() *Network { return NewFamily(hdr.V4) }

// NewV6 returns an empty IPv6 network. The paper's case-study network is
// dual-stack (/31 IPv4 and /126 IPv6 point-to-point prefixes); each
// family's forwarding state is modeled as its own network.
func NewV6() *Network { return NewFamily(hdr.V6) }

// NewFamily returns an empty network of the given address family.
func NewFamily(f hdr.Family) *Network {
	return &Network{
		Space:  hdr.NewFamilySpace(f),
		byName: make(map[string]DeviceID),
	}
}

// Family returns the network's address family.
func (n *Network) Family() hdr.Family { return n.Space.Family() }

// AddDevice creates a device. Names must be unique.
func (n *Network) AddDevice(name string, role Role, asn uint32) DeviceID {
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("netmodel: duplicate device name %q", name))
	}
	id := DeviceID(len(n.Devices))
	n.Devices = append(n.Devices, &Device{ID: id, Name: name, Role: role, ASN: asn})
	n.byName[name] = id
	return id
}

// Device returns the device with the given ID.
func (n *Network) Device(id DeviceID) *Device { return n.Devices[id] }

// DeviceByName looks a device up by name.
func (n *Network) DeviceByName(name string) (*Device, bool) {
	id, ok := n.byName[name]
	if !ok {
		return nil, false
	}
	return n.Devices[id], true
}

// Iface returns the interface with the given ID.
func (n *Network) Iface(id IfaceID) *Interface { return n.Ifaces[id] }

// Rule returns the rule with the given ID.
func (n *Network) Rule(id RuleID) *Rule { return n.Rules[id] }

// AddIface creates an unconnected interface on a device.
func (n *Network) AddIface(dev DeviceID, name string) IfaceID {
	id := IfaceID(len(n.Ifaces))
	n.Ifaces = append(n.Ifaces, &Interface{ID: id, Device: dev, Name: name, Peer: NoIface})
	n.Devices[dev].Ifaces = append(n.Devices[dev].Ifaces, id)
	return id
}

// AddEdgeIface creates an external (host- or WAN-facing) interface.
func (n *Network) AddEdgeIface(dev DeviceID, name string, addr netip.Prefix) IfaceID {
	id := n.AddIface(dev, name)
	n.Ifaces[id].External = true
	n.Ifaces[id].Addr = addr
	return id
}

// Connect links two devices with a point-to-point subnet: a /31 for IPv4
// networks (ends get .0 and .1) or a /126 or /127 for IPv6 (per the
// paper's §7.2: "statically configured /31 (IPv4) and /126 (IPv6)
// prefixes"). A /126's ends get ::1 and ::2; a /127's get ::0 and ::1.
// It returns the two new interfaces.
func (n *Network) Connect(a, b DeviceID, subnet netip.Prefix) (IfaceID, IfaceID) {
	if subnet.IsValid() {
		switch n.Family() {
		case hdr.V4:
			if !subnet.Addr().Is4() || subnet.Bits() != 31 {
				panic(fmt.Sprintf("netmodel: IPv4 point-to-point subnet %v must be a /31", subnet))
			}
		case hdr.V6:
			if subnet.Addr().Is4() || (subnet.Bits() != 126 && subnet.Bits() != 127) {
				panic(fmt.Sprintf("netmodel: IPv6 point-to-point subnet %v must be a /126 or /127", subnet))
			}
		}
	}
	ia := n.AddIface(a, fmt.Sprintf("to-%s", n.Devices[b].Name))
	ib := n.AddIface(b, fmt.Sprintf("to-%s", n.Devices[a].Name))
	n.Ifaces[ia].Peer = ib
	n.Ifaces[ib].Peer = ia
	if subnet.IsValid() {
		lo := subnet.Masked().Addr()
		if subnet.Bits() == 126 {
			lo = lo.Next() // convention: ::1 and ::2 on a /126
		}
		n.Ifaces[ia].Addr = netip.PrefixFrom(lo, subnet.Bits())
		n.Ifaces[ib].Addr = netip.PrefixFrom(lo.Next(), subnet.Bits())
	}
	return ia, ib
}

// Neighbors returns the devices adjacent to dev via internal links.
func (n *Network) Neighbors(dev DeviceID) []DeviceID {
	var out []DeviceID
	for _, ifid := range n.Devices[dev].Ifaces {
		p := n.Ifaces[ifid].Peer
		if p != NoIface {
			out = append(out, n.Ifaces[p].Device)
		}
	}
	return out
}

// IfaceTo returns dev's interface(s) facing neighbor nb.
func (n *Network) IfaceTo(dev, nb DeviceID) []IfaceID {
	var out []IfaceID
	for _, ifid := range n.Devices[dev].Ifaces {
		p := n.Ifaces[ifid].Peer
		if p != NoIface && n.Ifaces[p].Device == nb {
			out = append(out, ifid)
		}
	}
	return out
}

// AddFIBRule appends a FIB rule on dev. Order is irrelevant: the FIB is
// longest-prefix-match and ComputeMatchSets fixes the evaluation order.
func (n *Network) AddFIBRule(dev DeviceID, match Match, action Action, origin RouteOrigin) RuleID {
	return n.addRule(dev, TableFIB, match, action, origin, false)
}

// AddACLRule appends an ACL entry on dev. ACL order is the insertion order
// (first match wins).
func (n *Network) AddACLRule(dev DeviceID, match Match, deny bool) RuleID {
	action := Action{Kind: ActForward} // permit: continue to FIB
	if deny {
		action = Action{Kind: ActDrop}
	}
	return n.addRule(dev, TableACL, match, action, OriginACL, deny)
}

func (n *Network) addRule(dev DeviceID, table TableKind, match Match, action Action, origin RouteOrigin, deny bool) RuleID {
	if n.matchSetsDone {
		panic("netmodel: rule added after ComputeMatchSets")
	}
	id := RuleID(len(n.Rules))
	r := &Rule{
		ID:     id,
		Device: dev,
		Table:  table,
		Match:  match,
		Action: action,
		Origin: origin,
		Deny:   deny,
	}
	n.Rules = append(n.Rules, r)
	d := n.Devices[dev]
	if table == TableACL {
		d.ACL = append(d.ACL, id)
	} else {
		d.FIB = append(d.FIB, id)
	}
	return id
}

// ComputeMatchSets derives the disjoint match set of every rule (§5.2
// Step 1): the packets its match fields cover minus everything an
// earlier rule of its table claims. FIBs are ordered longest prefix
// first; ACLs keep insertion order.
func (n *Network) ComputeMatchSets() {
	if n.matchSetsDone {
		return
	}
	n.index = make([]devIndex, len(n.Devices))
	fibs := fibDeriver{n: n}
	for _, d := range n.Devices {
		sortFIB(n.Rules, d.FIB)
		n.computeTable(n.Rules, d.ACL)
		n.index[d.ID] = fibs.derive(n.Rules, d.FIB)
	}
	n.matchSetsDone = true
}

// sortFIB fixes a FIB's evaluation order (fibOrder).
func sortFIB(rules []*Rule, fib []RuleID) {
	slices.SortFunc(fib, func(a, b RuleID) int { return fibOrder(rules, a, b) })
}

// fibOrder is a FIB's evaluation order: longest prefix first; ties
// broken by rule ID for determinism (distinct same-length prefixes never
// overlap anyway).
func fibOrder(rules []*Rule, a, b RuleID) int {
	if c := prefixLen(rules[b].Match.DstPrefix) - prefixLen(rules[a].Match.DstPrefix); c != 0 {
		return c
	}
	return int(a - b)
}

// FIBRuleFor returns the device's FIB rule whose match is exactly the
// given destination prefix, if any; of rules that repeat a prefix, the
// highest ID. Only valid after ComputeMatchSets.
func (n *Network) FIBRuleFor(dev DeviceID, prefix netip.Prefix) (*Rule, bool) {
	if !n.matchSetsDone {
		panic("netmodel: FIBRuleFor before ComputeMatchSets")
	}
	p, ok := n.FIBKey(prefix)
	if !ok {
		return nil, false
	}
	ix := &n.index[dev]
	i, ok := ix.last(p)
	if !ok {
		return nil, false
	}
	return n.Rules[ix.byPrefix[i]], true
}

func prefixLen(p netip.Prefix) int {
	if !p.IsValid() {
		return -1
	}
	return p.Bits()
}

// computeTable derives the disjoint match sets of one table by the
// ordered walk: each rule gets what its match fields cover minus the
// union of every earlier rule. It is right for any table — an ACL, a FIB
// with a source match or a repeated prefix — and reads and writes only
// rules (the live universe, or the one Commit stages).
func (n *Network) computeTable(rules []*Rule, order []RuleID) {
	claimed := n.Space.Empty()
	for i, id := range order {
		r := rules[id]
		n.deriveRaw(r)
		if i == 0 {
			// Nothing is claimed yet; the first rule's disjoint match is
			// its raw match, no Diff needed.
			r.match = r.raw
		} else {
			r.match = r.raw.Diff(claimed)
		}
		r.matchOK = true
		n.derived++
		claimed = claimed.Union(r.raw)
	}
}

// fibDeriver derives the match sets of FIB after FIB for one
// ComputeMatchSets or Commit; its scratch is reused from device to
// device.
type fibDeriver struct {
	n     *Network
	rules []*Rule         // the universe fib IDs index: live, or Commit's staged one
	fib   []RuleID        // the table being derived, sorted
	pfx   []hdr.PrefixKey // masked destination prefix of each fib position
	order []int32         // positions of fib in prefix order
	keys  []hdr.PrefixKey // a rule's prefix and its immediate children's
	flag  []bool          // true, then false: flags the rule among keys
	kids  []hdr.Set       // the raw sets of a rule's immediate children (patch)
}

// derive sets the disjoint match sets of a sorted FIB and returns the
// table's index. In a destination-only FIB — every rule a distinct, valid
// destination prefix and no other field — the only earlier rules that
// overlap a rule are the more-specific prefixes inside it, and those are
// covered by the immediate ones, so M[r] = raw(r) − ⋃ raw(immediate
// children): a rule without children — most of a FIB — keeps its raw set
// and costs no BDD work at all, where the ordered walk pays a Diff and a
// Union against a set that grows down the whole table. A rule with
// children is the destinations whose longest match among {r, its
// immediate children} is r: one LongestMatch walk over those prefixes,
// node by node with no apply step (at freeze time the space is fresh, so
// a fold would find little in the op cache). Any other FIB takes the
// ordered walk.
func (d *fibDeriver) derive(rules []*Rule, fib []RuleID) devIndex {
	d.rules, d.fib = rules, fib
	if !d.prefixOrder() {
		d.n.computeTable(rules, fib)
		return prefixIndex(rules, fib)
	}
	ix := devIndex{dstOnly: true, byPrefix: make([]RuleID, len(d.order)), pfx: make([]hdr.PrefixKey, len(d.order))}
	for k, i := range d.order {
		ix.byPrefix[k], ix.pfx[k] = fib[i], d.pfx[i]
	}
	ix.lens = prefixLens(ix.pfx)
	for k, id := range ix.byPrefix {
		r := rules[id]
		d.n.deriveRaw(r)
		r.match = r.raw
		if stop := ix.end(k); stop > k+1 {
			keys := append(d.keys[:0], ix.pfx[k])
			for c := k + 1; c < stop; c = ix.end(c) {
				keys = append(keys, ix.pfx[c])
			}
			for len(d.flag) < len(keys) {
				d.flag = append(d.flag, len(d.flag) == 0)
			}
			r.match = d.n.Space.LongestMatch(keys, d.flag[:len(keys)])
			d.keys = keys
		}
		r.matchOK = true
		d.n.derived++
	}
	return ix
}

// prefixOrder fills d.pfx and d.order for a destination-only FIB; ok is
// false for any other table. Prefix order is by address, shorter first,
// so a prefix comes immediately before everything inside it and its
// immediate children follow in destination order.
func (d *fibDeriver) prefixOrder() (ok bool) {
	d.pfx, d.order = d.pfx[:0], d.order[:0]
	for i, id := range d.fib {
		m := d.rules[id].Match
		if !dstOnlyMatch(m) {
			return false
		}
		d.pfx = append(d.pfx, hdr.KeyOf(m.DstPrefix.Masked()))
		d.order = append(d.order, int32(i))
	}
	slices.SortFunc(d.order, func(a, b int32) int { return d.pfx[a].Compare(d.pfx[b]) })
	for k := 1; k < len(d.order); k++ {
		if d.pfx[d.order[k]] == d.pfx[d.order[k-1]] {
			return false // a repeated prefix
		}
	}
	return true
}

// dstOnlyMatch reports a match on a valid destination prefix and no
// other field.
func dstOnlyMatch(m Match) bool {
	return m.DstPrefix.IsValid() && m == MatchDst(m.DstPrefix)
}

// prefixIndex is the index of a FIB that is not destination-only: the
// rules that match a destination prefix, in prefix order and a repeated
// prefix's rules by ID — enough for FIBRuleFor; lookups walk the table.
func prefixIndex(rules []*Rule, fib []RuleID) devIndex {
	var ix devIndex
	for _, id := range fib {
		if rules[id].Match.DstPrefix.IsValid() {
			ix.byPrefix = append(ix.byPrefix, id)
		}
	}
	slices.SortFunc(ix.byPrefix, func(a, b RuleID) int {
		if c := comparePrefixes(rules[a].Match.DstPrefix.Masked(), rules[b].Match.DstPrefix.Masked()); c != 0 {
			return c
		}
		return int(a - b)
	})
	ix.pfx = make([]hdr.PrefixKey, len(ix.byPrefix))
	for k, id := range ix.byPrefix {
		ix.pfx[k] = hdr.KeyOf(rules[id].Match.DstPrefix.Masked())
	}
	return ix
}

// prefixLens lists the prefix lengths present, longest first.
func prefixLens(pfx []hdr.PrefixKey) []int {
	var present [129]bool
	for _, p := range pfx {
		present[p.Bits()] = true
	}
	var lens []int
	for l := len(present) - 1; l >= 0; l-- {
		if present[l] {
			lens = append(lens, l)
		}
	}
	return lens
}

// comparePrefixes is destination-prefix order: by address, shorter first
// — hdr.PrefixKey's order within one family, on netip values. The index
// of a FIB that is not destination-only and the class fold sort by it.
func comparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// deriveRaw sets r.raw, the packet set of the rule's match fields, unless
// the rule already carries it (a rule Commit kept with its match
// unchanged).
func (n *Network) deriveRaw(r *Rule) {
	if r.raw.Space() == nil {
		r.raw = n.matchSet(r.Match)
	}
}

// matchSet derives the packet set of a rule's match fields, memoized by
// the match key: networks repeat matches heavily (the same default
// route, host subnet, or ACL entry appears on many devices), and the
// BDD derivation walks every bit of every field, so re-deriving
// identical matches per device is pure waste. The memo is sound because
// Match is a pure value key and all rules share n.Space.
func (n *Network) matchSet(mt Match) hdr.Set {
	if s, ok := n.matchMemo[mt]; ok {
		return s
	}
	if n.matchMemo == nil {
		n.matchMemo = make(map[Match]hdr.Set)
	}
	s := mt.Set(n.Space)
	n.matchMemo[mt] = s
	return s
}

// MatchSetsComputed reports whether ComputeMatchSets has run.
func (n *Network) MatchSetsComputed() bool { return n.matchSetsDone }

// Generation counts the mutations committed on the network since it was
// frozen. Rule IDs compact on every commit, so state indexed by RuleID is
// valid for one generation only.
func (n *Network) Generation() uint64 { return n.generation }

// DeviceRules returns all rule IDs of a device (ACL then FIB).
func (n *Network) DeviceRules(dev DeviceID) []RuleID {
	d := n.Devices[dev]
	out := make([]RuleID, 0, len(d.ACL)+len(d.FIB))
	out = append(out, d.ACL...)
	out = append(out, d.FIB...)
	return out
}

// RulesForwardingTo returns the rules on the interface's device whose
// action forwards out the given interface (the dependency set of an
// *outgoing* interface, §4.3.2).
func (n *Network) RulesForwardingTo(ifid IfaceID) []RuleID {
	dev := n.Ifaces[ifid].Device
	var out []RuleID
	for _, rid := range n.Devices[dev].FIB {
		r := n.Rules[rid]
		if r.Action.Kind != ActForward {
			continue
		}
		for _, out2 := range r.Action.OutIfaces {
			if out2 == ifid {
				out = append(out, rid)
				break
			}
		}
	}
	return out
}

// Roles returns the distinct device roles in device order — the row
// order of a by-role coverage table for a network that did not come from
// a generator with a canonical order of its own.
func (n *Network) Roles() []Role {
	seen := map[Role]bool{}
	var out []Role
	for _, d := range n.Devices {
		if !seen[d.Role] {
			seen[d.Role] = true
			out = append(out, d.Role)
		}
	}
	return out
}

// Stats summarizes the network's size.
type Stats struct {
	Devices, Ifaces, Links, Rules int
}

// Stats returns counts of the network's components.
func (n *Network) Stats() Stats {
	links := 0
	for _, i := range n.Ifaces {
		if i.Peer != NoIface && i.ID < i.Peer {
			links++
		}
	}
	return Stats{
		Devices: len(n.Devices),
		Ifaces:  len(n.Ifaces),
		Links:   links,
		Rules:   len(n.Rules),
	}
}
