// Package dataplane gives semantics to the forwarding state of a
// netmodel.Network: symbolic application of a device's rule tables to a
// packet set, network-wide symbolic reachability, concrete traceroute, and
// streaming enumeration of the path universe (§5.2 Step 3 of the paper).
//
// All computations operate on the disjoint match sets of §4.1, so exactly
// one rule per table applies to any packet and no behavior depends on
// device-internal lookup implementations (the paper's "semantics-based"
// requirement, §3.2).
package dataplane

import (
	"context"
	"fmt"
	"hash/fnv"

	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// Loc is a located packet position: at a device, having entered through
// Iface (netmodel.NoIface when the packets were injected directly).
type Loc struct {
	Device netmodel.DeviceID
	Iface  netmodel.IfaceID
}

// Injected returns the location for packets injected at a device.
func Injected(dev netmodel.DeviceID) Loc {
	return Loc{Device: dev, Iface: netmodel.NoIface}
}

// Emission is one output of a forwarding rule: a packet set leaving via
// OutIface, either to the neighbor location Next or out of the modeled
// network (External).
type Emission struct {
	OutIface netmodel.IfaceID
	External bool
	Next     Loc // valid when !External
	Pkts     hdr.Set
}

// RuleHit records that a rule fired on a subset of the arriving packets.
type RuleHit struct {
	Rule *netmodel.Rule
	Pkts hdr.Set    // arriving packets claimed by this rule
	Out  []Emission // empty when the packets were dropped or delivered
}

// DeviceResult is the outcome of pushing a packet set through one device.
type DeviceResult struct {
	Hits []RuleHit
	// NoRoute is the packets matching no FIB rule (implicitly dropped).
	NoRoute hdr.Set
	// ImplicitDeny is the packets matching no ACL entry on a device
	// with an ACL (dropped before the FIB; empty when the device has no
	// ACL).
	ImplicitDeny hdr.Set
}

// ApplyDevice symbolically pushes the packet set p through dev's tables:
// the ingress ACL (if any) first, then the FIB. One RuleHit is produced
// per rule that claims a non-empty subset.
func ApplyDevice(net *netmodel.Network, dev netmodel.DeviceID, p hdr.Set) DeviceResult {
	if !net.MatchSetsComputed() {
		panic("dataplane: match sets not computed")
	}
	var res DeviceResult
	d := net.Device(dev)

	permitted := p
	if len(d.ACL) > 0 {
		permitted = p.Space().Empty()
		matched := p.Space().Empty()
		for _, rid := range d.ACL {
			r := net.Rule(rid)
			hit := p.Intersect(r.MatchSet())
			if hit.IsEmpty() {
				continue
			}
			matched = matched.Union(hit)
			res.Hits = append(res.Hits, RuleHit{Rule: r, Pkts: hit})
			if !r.Deny {
				permitted = permitted.Union(hit)
			}
		}
		// Packets matching no ACL entry are implicitly denied.
		res.ImplicitDeny = p.Diff(matched)
	} else {
		res.ImplicitDeny = p.Space().Empty()
	}

	claimed := p.Space().Empty()
	for _, rid := range d.FIB {
		r := net.Rule(rid)
		hit := permitted.Intersect(r.MatchSet())
		if hit.IsEmpty() {
			continue
		}
		claimed = claimed.Union(hit)
		rh := RuleHit{Rule: r, Pkts: hit}
		if r.Action.Kind == netmodel.ActForward {
			out := r.Action.Transform.Apply(hit)
			for _, ifid := range r.Action.OutIfaces {
				ifc := net.Iface(ifid)
				em := Emission{OutIface: ifid, Pkts: out}
				if ifc.Peer == netmodel.NoIface {
					em.External = true
				} else {
					peer := net.Iface(ifc.Peer)
					em.Next = Loc{Device: peer.Device, Iface: peer.ID}
				}
				rh.Out = append(rh.Out, em)
			}
		}
		res.Hits = append(res.Hits, rh)
	}
	res.NoRoute = permitted.Diff(claimed)
	return res
}

// Reachability is the result of a symbolic network traversal.
type Reachability struct {
	// Arrived maps each location to the packets that arrived there
	// (union over all paths).
	Arrived map[Loc]hdr.Set
	// Delivered maps devices to packets delivered locally (loopbacks,
	// connected routes).
	Delivered map[netmodel.DeviceID]hdr.Set
	// Egressed maps external interfaces to packets that left the network
	// through them.
	Egressed map[netmodel.IfaceID]hdr.Set
	// Dropped maps devices to packets dropped by an explicit drop rule.
	Dropped map[netmodel.DeviceID]hdr.Set
	// NoRoute maps devices to packets that matched no rule.
	NoRoute map[netmodel.DeviceID]hdr.Set
}

// AtDevice returns the union of packets that arrived at dev via any
// interface or injection.
func (r *Reachability) AtDevice(net *netmodel.Network, dev netmodel.DeviceID) hdr.Set {
	out := net.Space.Empty()
	for loc, s := range r.Arrived {
		if loc.Device == dev {
			out = out.Union(s)
		}
	}
	return out
}

// ReachOpts configures a symbolic traversal.
type ReachOpts struct {
	// OnHop, when non-nil, is invoked once per (location, newly arriving
	// packets) — exactly the per-hop markPacket feed of §5.1.
	OnHop func(loc Loc, pkts hdr.Set)
}

// Reach symbolically floods the packet set from the starting location and
// returns everything that happened. Per-location arrival sets grow
// monotonically, so the traversal terminates on stateless data planes.
//
// A flood records outcomes per location, not per rule, so each device is
// applied by action class (netmodel.Forwarding): one Intersect per group
// of FIB rules that forward alike, instead of ApplyDevice's one per
// rule. The two agree set for set because match sets are disjoint:
// p ∩ ⋃M[r] = ⋃(p ∩ M[r]).
func Reach(net *netmodel.Network, start Loc, pkts hdr.Set, opts ReachOpts) (*Reachability, error) {
	return reach(net, start, pkts, opts, applyClasses)
}

// flood is the state of one traversal: the result so far and the
// worklist. The worklist coalesces pending packets per location: ECMP
// fans the same location in along many paths, and merging the arrivals
// before applying the device's tables saves one full table application
// per extra path.
type flood struct {
	net     *netmodel.Network
	res     *Reachability
	pending map[Loc]hdr.Set
	queue   []Loc
}

func (f *flood) enqueue(loc Loc, s hdr.Set) {
	if cur, ok := f.pending[loc]; ok {
		f.pending[loc] = cur.Union(s)
		return
	}
	f.pending[loc] = s
	f.queue = append(f.queue, loc)
}

// act records what an action does to the non-empty packet set hit at
// dev: dropped, delivered, or sent out every out-interface (transformed
// first), to the neighbour's worklist entry or out of the network.
func (f *flood) act(dev netmodel.DeviceID, a netmodel.Action, hit hdr.Set) {
	switch a.Kind {
	case netmodel.ActDrop:
		f.res.Dropped[dev] = unionInto(f.net, f.res.Dropped[dev], hit)
	case netmodel.ActDeliver:
		f.res.Delivered[dev] = unionInto(f.net, f.res.Delivered[dev], hit)
	case netmodel.ActForward:
		hit = a.Transform.Apply(hit)
		for _, ifid := range a.OutIfaces {
			ifc := f.net.Iface(ifid)
			if ifc.Peer == netmodel.NoIface {
				f.res.Egressed[ifid] = unionInto(f.net, f.res.Egressed[ifid], hit)
			} else {
				peer := f.net.Iface(ifc.Peer)
				f.enqueue(Loc{Device: peer.Device, Iface: peer.ID}, hit)
			}
		}
	}
}

// applyClasses pushes the newly arrived packets through a device by
// action class.
func applyClasses(f *flood, dev netmodel.DeviceID, fresh hdr.Set) {
	fw := f.net.Forwarding(dev)
	permitted := fresh
	if fw.HasACL {
		permitted = fresh.Intersect(fw.Permit)
		if denied := fresh.Diff(permitted); !denied.IsEmpty() {
			f.res.Dropped[dev] = unionInto(f.net, f.res.Dropped[dev], denied)
		}
	}
	for i := range fw.Classes {
		c := &fw.Classes[i]
		if hit := permitted.Intersect(c.Match); !hit.IsEmpty() {
			f.act(dev, c.Action, hit)
		}
	}
	if noRoute := permitted.Diff(fw.Routed); !noRoute.IsEmpty() {
		f.res.NoRoute[dev] = unionInto(f.net, f.res.NoRoute[dev], noRoute)
	}
}

// reach is the worklist of Reach over a device-application step (the
// test oracle substitutes ApplyDevice's rule-by-rule one).
func reach(net *netmodel.Network, start Loc, pkts hdr.Set, opts ReachOpts, apply func(f *flood, dev netmodel.DeviceID, fresh hdr.Set)) (*Reachability, error) {
	// A safety net against transform-induced livelock: a stateless
	// flood settles long before this many worklist steps.
	maxSteps := 200 * (len(net.Devices) + 1)
	f := &flood{
		net: net,
		res: &Reachability{
			Arrived:   make(map[Loc]hdr.Set),
			Delivered: make(map[netmodel.DeviceID]hdr.Set),
			Egressed:  make(map[netmodel.IfaceID]hdr.Set),
			Dropped:   make(map[netmodel.DeviceID]hdr.Set),
			NoRoute:   make(map[netmodel.DeviceID]hdr.Set),
		},
		pending: map[Loc]hdr.Set{start: pkts},
		queue:   []Loc{start},
	}
	steps := 0
	for len(f.queue) > 0 {
		loc := f.queue[0]
		f.queue = f.queue[1:]
		in := f.pending[loc]
		delete(f.pending, loc)

		seen, ok := f.res.Arrived[loc]
		if !ok {
			seen = net.Space.Empty()
		}
		fresh := in.Diff(seen)
		if fresh.IsEmpty() {
			continue
		}
		if steps++; steps > maxSteps {
			return nil, fmt.Errorf("dataplane: traversal exceeded %d steps (transform loop?)", maxSteps)
		}
		f.res.Arrived[loc] = seen.Union(fresh)
		if opts.OnHop != nil {
			opts.OnHop(loc, fresh)
		}
		apply(f, loc.Device, fresh)
	}
	return f.res, nil
}

func unionInto(net *netmodel.Network, acc hdr.Set, s hdr.Set) hdr.Set {
	if acc.Space() == nil {
		acc = net.Space.Empty()
	}
	return acc.Union(s)
}

// TraceHop is one hop of a concrete traceroute.
type TraceHop struct {
	Loc      Loc
	Rule     netmodel.RuleID // rule that handled the packet (FIB or ACL deny)
	OutIface netmodel.IfaceID
}

// TraceEnd classifies how a traceroute finished.
type TraceEnd uint8

// Traceroute outcomes.
const (
	TraceDelivered TraceEnd = iota // delivered locally at the last hop
	TraceEgressed                  // left the network via an external iface
	TraceDropped                   // explicit drop rule
	TraceDenied                    // ACL deny
	TraceNoRoute                   // no matching rule
	TraceLoop                      // revisited a device
	TraceHopLimit                  // exceeded the hop limit
)

func (e TraceEnd) String() string {
	switch e {
	case TraceDelivered:
		return "delivered"
	case TraceEgressed:
		return "egressed"
	case TraceDropped:
		return "dropped"
	case TraceDenied:
		return "acl-denied"
	case TraceNoRoute:
		return "no-route"
	case TraceLoop:
		return "loop"
	case TraceHopLimit:
		return "hop-limit"
	}
	return "unknown"
}

// Trace is a completed concrete traceroute.
type Trace struct {
	Hops []TraceHop
	End  TraceEnd
}

// Traceroute follows one concrete packet from start. ECMP choices are
// resolved deterministically by hashing the 5-tuple, as a real switch
// would. The hop limit is 255.
//
// The FIB stage is a longest-prefix lookup on every device whose FIB is
// destination-only (netmodel.FIBLookup decides that from the table
// itself); any other FIB, and every ACL, is walked first match wins.
func Traceroute(net *netmodel.Network, start Loc, pkt hdr.Packet) Trace {
	return traceroute(net, start, pkt, false)
}

// fibWalk is the first-match walk of dev's FIB: right for any table, and
// the only way through one with a source match or a repeated prefix.
func fibWalk(net *netmodel.Network, dev netmodel.DeviceID, assign []bool) *netmodel.Rule {
	for _, rid := range net.Device(dev).FIB {
		if r := net.Rule(rid); r.MatchSet().ContainsAssign(assign) {
			return r
		}
	}
	return nil
}

// traceroute is Traceroute; walkOnly forces the first-match walk on
// every device (the test oracle for the lookup).
func traceroute(net *netmodel.Network, start Loc, pkt hdr.Packet, walkOnly bool) Trace {
	if !net.MatchSetsComputed() {
		panic("dataplane: match sets not computed")
	}
	var tr Trace
	visited := make(map[netmodel.DeviceID]bool)
	loc := start
	// Derive the packet's variable assignment once and test it against
	// each rule's match set directly — rebuilding the assignment per rule
	// dominated traceroute time. It only changes when a rule rewrites a
	// header field.
	assign := net.Space.PacketAssign(pkt, nil)
	for hops := 0; hops < 255; hops++ {
		if visited[loc.Device] {
			tr.End = TraceLoop
			return tr
		}
		visited[loc.Device] = true
		d := net.Device(loc.Device)

		// ACL stage: first match wins; matching nothing on a device with
		// an ACL is an implicit deny, mirroring ApplyDevice.
		if len(d.ACL) > 0 {
			denied := true
			for _, rid := range d.ACL {
				r := net.Rule(rid)
				if r.MatchSet().ContainsAssign(assign) {
					if r.Deny {
						tr.Hops = append(tr.Hops, TraceHop{Loc: loc, Rule: rid, OutIface: netmodel.NoIface})
					} else {
						denied = false
					}
					break
				}
			}
			if denied {
				tr.End = TraceDenied
				return tr
			}
		}

		// FIB stage.
		var rule *netmodel.Rule
		indexed := false
		if !walkOnly {
			rule, indexed = net.FIBLookup(loc.Device, pkt.Dst)
		}
		if !indexed {
			rule = fibWalk(net, loc.Device, assign)
		}
		if rule == nil {
			tr.End = TraceNoRoute
			return tr
		}
		hop := TraceHop{Loc: loc, Rule: rule.ID, OutIface: netmodel.NoIface}
		switch rule.Action.Kind {
		case netmodel.ActDrop:
			tr.Hops = append(tr.Hops, hop)
			tr.End = TraceDropped
			return tr
		case netmodel.ActDeliver:
			tr.Hops = append(tr.Hops, hop)
			tr.End = TraceDelivered
			return tr
		}
		outs := rule.Action.OutIfaces
		ifid := outs[ecmpIndex(pkt, len(outs))]
		hop.OutIface = ifid
		tr.Hops = append(tr.Hops, hop)
		if tr2 := rule.Action.Transform; tr2 != nil {
			if tr2.RewriteDst {
				pkt.Dst = tr2.Addr
			}
			if tr2.RewriteSrc {
				pkt.Src = tr2.Addr
			}
			assign = net.Space.PacketAssign(pkt, assign)
		}
		ifc := net.Iface(ifid)
		if ifc.Peer == netmodel.NoIface {
			tr.End = TraceEgressed
			return tr
		}
		peer := net.Iface(ifc.Peer)
		loc = Loc{Device: peer.Device, Iface: peer.ID}
	}
	tr.End = TraceHopLimit
	return tr
}

// ecmpIndex deterministically selects an ECMP member for a packet
// (either address family).
func ecmpIndex(p hdr.Packet, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write(p.Dst.AsSlice())
	h.Write(p.Src.AsSlice())
	h.Write([]byte{p.Proto, byte(p.DstPort >> 8), byte(p.DstPort), byte(p.SrcPort >> 8), byte(p.SrcPort)})
	return int(h.Sum32() % uint32(n))
}

// PathEnd classifies how a path in the path universe terminates.
type PathEnd uint8

// Path terminations.
const (
	PathDelivered PathEnd = iota
	PathEgressed
	PathDropped
	PathNoRoute
	PathLoop
)

// Path is one guarded string of the path universe: the packets in Guard
// flow through exactly the rule sequence Rules and then terminate with End.
type Path struct {
	Start Loc
	Rules []netmodel.RuleID
	// Guard is the packet set at the *end* of the path (post-transform).
	// For transform-free paths it equals the set of packets that enter at
	// Start and traverse every rule in sequence.
	Guard hdr.Set
	End   PathEnd
}

// Start is an injection point for path enumeration.
type Start struct {
	Loc  Loc
	Pkts hdr.Set
}

// EnumOpts bounds path enumeration.
type EnumOpts struct {
	// MaxPaths stops enumeration after this many paths (0 = unlimited).
	// A single path is cut at the number of devices + 2 hops.
	MaxPaths int
}

// EnumeratePaths performs the depth-first symbolic exploration of §5.2
// Step 3: starting from each injection point with its packet set, it
// splits the set across the rules of each device and recurses along
// forwarding edges, emitting one Path per maximal guarded string. Paths
// are processed streaming via visit — they are never all materialized.
// visit returning false stops enumeration. The return values are the
// number of paths emitted and whether enumeration ran to completion.
//
// The context is checked in the walk loop alongside the MaxPaths cap: a
// done ctx stops the exploration and reports incompleteness the same
// way an exhausted path budget does.
func EnumeratePaths(ctx context.Context, net *netmodel.Network, starts []Start, opts EnumOpts, visit func(Path) bool) (int, bool) {
	if !net.MatchSetsComputed() {
		panic("dataplane: match sets not computed")
	}
	maxHops := len(net.Devices) + 2
	emitted := 0
	stopped := false

	var rules []netmodel.RuleID
	onPath := make(map[netmodel.DeviceID]bool)

	emit := func(start Loc, guard hdr.Set, end PathEnd) bool {
		if opts.MaxPaths > 0 && emitted >= opts.MaxPaths {
			stopped = true
			return false
		}
		emitted++
		seq := make([]netmodel.RuleID, len(rules))
		copy(seq, rules)
		return visit(Path{Start: start, Rules: seq, Guard: guard, End: end})
	}

	var dfs func(start Loc, loc Loc, pkts hdr.Set) bool
	dfs = func(start Loc, loc Loc, pkts hdr.Set) bool {
		if ctx.Err() != nil {
			stopped = true
			return false
		}
		if onPath[loc.Device] {
			return emit(start, pkts, PathLoop)
		}
		if len(rules) >= maxHops {
			return emit(start, pkts, PathLoop)
		}
		onPath[loc.Device] = true
		defer delete(onPath, loc.Device)

		dr := ApplyDevice(net, loc.Device, pkts)
		if !dr.NoRoute.IsEmpty() {
			if !emit(start, dr.NoRoute, PathNoRoute) {
				return false
			}
		}
		if !dr.ImplicitDeny.IsEmpty() {
			if !emit(start, dr.ImplicitDeny, PathDropped) {
				return false
			}
		}
		for _, hit := range dr.Hits {
			rules = append(rules, hit.Rule.ID)
			ok := true
			switch hit.Rule.Action.Kind {
			case netmodel.ActDrop:
				ok = emit(start, hit.Pkts, PathDropped)
			case netmodel.ActDeliver:
				ok = emit(start, hit.Pkts, PathDelivered)
			case netmodel.ActForward:
				if len(hit.Out) == 0 {
					ok = emit(start, hit.Pkts, PathDropped)
				}
				for _, em := range hit.Out {
					if !ok {
						break
					}
					if em.External {
						ok = emit(start, em.Pkts, PathEgressed)
					} else {
						ok = dfs(start, em.Next, em.Pkts)
					}
				}
			}
			rules = rules[:len(rules)-1]
			if !ok {
				return false
			}
		}
		return true
	}

	for _, st := range starts {
		if ctx.Err() != nil {
			return emitted, false
		}
		if st.Pkts.IsEmpty() {
			continue
		}
		if !dfs(st.Loc, st.Loc, st.Pkts) {
			return emitted, false
		}
	}
	return emitted, !stopped
}

// EdgeStarts returns the canonical injection points: every external
// interface (host- and WAN-facing) with the full header space, entering at
// its device.
func EdgeStarts(net *netmodel.Network) []Start {
	var out []Start
	full := net.Space.Full()
	for _, ifc := range net.Ifaces {
		if ifc.External {
			out = append(out, Start{
				Loc:  Loc{Device: ifc.Device, Iface: ifc.ID},
				Pkts: full,
			})
		}
	}
	return out
}
