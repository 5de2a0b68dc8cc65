// Package bgp computes network forwarding state with an eBGP-style
// control-plane simulator, standing in for the in-house simulator the paper
// uses to derive post-change FIBs (§7.1).
//
// The model follows the paper's case-study network design: every router
// speaks eBGP with its neighbors, best path is shortest AS-path with ECMP
// multipath across equal-cost neighbors (allow-as-in permits ToR-Agg-ToR
// style paths, so path *length* is the only selector), prefixes are
// originated at their owners (host subnets at ToRs, loopbacks everywhere,
// default and wide-area routes at the WAN edge), connected /31s are
// installed locally but never redistributed, static routes override BGP and
// a null-routed static suppresses propagation of that prefix (the root
// cause of the paper's §2 outage example), and per-session export filters
// control route scope (wide-area routes stay in the upper layers, §7.2).
//
// Selection is per prefix, so Run converges each prefix on its own: a
// breadth-first search from its announced originations over the sessions
// its export filter permits, on prefixes interned to dense IDs in install
// order. A flap replay (Replay) re-converges only the toggled prefixes.
//
// Run installs the resulting FIB rules into the netmodel.Network and leaves
// match-set computation to the caller.
package bgp

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"yardstick/internal/netmodel"
)

// StaticRoute is a per-device static route. Statics take precedence over
// BGP-learned routes for the same prefix and are never advertised; a
// null-routed static additionally blackholes the traffic.
type StaticRoute struct {
	Device   netmodel.DeviceID
	Prefix   netip.Prefix
	NextHops []netmodel.DeviceID // neighbor devices; ignored when Null
	Null     bool
	Origin   netmodel.RouteOrigin // origin recorded on the FIB rule
}

// Origination injects a prefix into BGP at a device. When EdgeIface is a
// valid interface the originating device forwards matching packets out of
// it (host subnets, WAN uplinks); otherwise the packets are delivered
// locally (loopbacks).
type Origination struct {
	Device    netmodel.DeviceID
	Prefix    netip.Prefix
	Origin    netmodel.RouteOrigin
	EdgeIface netmodel.IfaceID // netmodel.NoIface = deliver locally
}

// Route is a BGP RIB entry as seen by export filters and by callers
// inspecting Result.
type Route struct {
	Prefix   netip.Prefix
	Origin   netmodel.RouteOrigin
	Dist     int // AS-path length from the nearest originator
	NextHops []netmodel.DeviceID
}

// ExportFilter decides whether the device from advertises rt to the device
// to. A nil filter permits everything. It is asked once per session and
// prefix, with from's converged route.
type ExportFilter func(from, to *netmodel.Device, rt *Route) bool

// Config drives one simulation run.
type Config struct {
	Net     *netmodel.Network
	Statics []StaticRoute
	Origins []Origination
	Export  ExportFilter
}

// Result reports the converged RIBs: Result.RIB[device][prefix].
type Result struct {
	RIB []map[netip.Prefix]*Route
}

// Run simulates the control plane to a fixpoint and installs FIB rules
// (BGP routes, statics, connected /31s, loopbacks) into cfg.Net. The
// caller must invoke ComputeMatchSets afterwards. Run returns the
// converged RIBs for inspection.
func Run(cfg Config) (*Result, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("bgp: Config.Net is nil")
	}
	if cfg.Net.MatchSetsComputed() {
		return nil, fmt.Errorf("bgp: network is frozen (match sets already computed)")
	}
	res := &Result{RIB: make([]map[netip.Prefix]*Route, len(cfg.Net.Devices))}
	if err := newSim(cfg).build(cfg.Net, res); err != nil {
		return nil, err
	}
	return res, nil
}

// sim is a configuration split by prefix, with each prefix's converged
// routes kept between builds.
type sim struct {
	cfg      Config
	err      error                 // the configuration's first fault
	up       []bool                // per origination: announced
	pidOf    []int                 // per origination: its prefix ID
	prefixes []netip.Prefix        // sorted: prefix ID order is install order
	seeds    [][]int32             // per prefix: its originations, by device
	blocked  [][]netmodel.DeviceID // per prefix: the devices with a static for it
	routes   []routes              // per prefix
	dirty    []bool                // per prefix: its routes must be re-converged
	statics  [][]*StaticRoute      // per device, by prefix
	peers    [][]peer              // per device: its linked interfaces, by neighbor
}

// peer is a linked interface of a device and the neighbor at its far end.
type peer struct {
	nb  netmodel.DeviceID
	ifc netmodel.IfaceID
}

// routes is one prefix's converged state per device: dist is the AS-path
// length (-1 none, -2 a static, -3 a candidate while converging), src the
// origination the route descends from, and hops[lo:hi] the next hops.
type routes struct {
	dist, src, lo, hi []int32
	hops              []netmodel.DeviceID
}

func newSim(cfg Config) *sim {
	net, nDev := cfg.Net, len(cfg.Net.Devices)
	s := &sim{cfg: cfg, statics: make([][]*StaticRoute, nDev), peers: make([][]peer, nDev)}
	for _, o := range cfg.Origins {
		s.prefixes = append(s.prefixes, o.Prefix.Masked())
	}
	slices.SortFunc(s.prefixes, comparePrefix)
	s.prefixes = slices.Compact(s.prefixes)
	nP := len(s.prefixes)
	s.seeds, s.blocked, s.routes, s.dirty = make([][]int32, nP), make([][]netmodel.DeviceID, nP), make([]routes, nP), make([]bool, nP)
	for i, o := range cfg.Origins {
		pid, _ := slices.BinarySearchFunc(s.prefixes, o.Prefix.Masked(), comparePrefix)
		s.up, s.pidOf = append(s.up, true), append(s.pidOf, pid)
		s.seeds[pid] = append(s.seeds[pid], int32(i))
	}
	buf := make([]int32, 4*nDev*nP)
	for pid, seeds := range s.seeds {
		slices.SortFunc(seeds, func(a, b int32) int { return int(cfg.Origins[a].Device - cfg.Origins[b].Device) })
		r, b := &s.routes[pid], buf[4*nDev*pid:]
		r.dist, r.src, r.lo, r.hi, s.dirty[pid] = b[:nDev], b[nDev:2*nDev], b[2*nDev:3*nDev], b[3*nDev:4*nDev], true
	}
	for i := range cfg.Statics {
		if st := &cfg.Statics[i]; !st.Prefix.IsValid() && s.err == nil {
			s.err = fmt.Errorf("bgp: static route on %s has invalid prefix", net.Device(st.Device).Name)
		} else if st.Prefix.IsValid() {
			s.statics[st.Device] = append(s.statics[st.Device], st)
			if pid, ok := slices.BinarySearchFunc(s.prefixes, st.Prefix.Masked(), comparePrefix); ok {
				s.blocked[pid] = append(s.blocked[pid], st.Device)
			}
		}
	}
	for d, sts := range s.statics {
		slices.SortFunc(sts, func(a, b *StaticRoute) int { return comparePrefix(a.Prefix.Masked(), b.Prefix.Masked()) })
		for i := 1; i < len(sts) && s.err == nil; i++ {
			if sts[i].Prefix.Masked() == sts[i-1].Prefix.Masked() {
				s.err = fmt.Errorf("bgp: duplicate static for %v on %s", sts[i].Prefix, net.Device(netmodel.DeviceID(d)).Name)
			}
		}
	}
	for d, dev := range net.Devices {
		for _, ifc := range dev.Ifaces {
			if p := net.Iface(ifc).Peer; p != netmodel.NoIface {
				s.peers[d] = append(s.peers[d], peer{net.Iface(p).Device, ifc})
			}
		}
		slices.SortFunc(s.peers[d], func(a, b peer) int { return cmp.Or(int(a.nb-b.nb), int(a.ifc-b.ifc)) })
	}
	return s
}

// converge recomputes one prefix's routes by a breadth-first search from
// its announced originations. The candidates of each level, in device
// order, take as next hops their neighbors on the level before that may
// advertise the route to them (links are symmetric: netmodel.Connect and
// DecodeJSON make them so). A device thus takes the origin of its
// lowest-numbered next hop, and its next hops come out sorted.
func (s *sim) converge(pid int) error {
	r := &s.routes[pid]
	for d := range r.dist {
		r.dist[d] = -1
	}
	for _, d := range s.blocked[pid] {
		r.dist[d] = -2
	}
	level, next, prev := []netmodel.DeviceID{}, []netmodel.DeviceID{}, netmodel.DeviceID(-1)
	for _, o := range s.seeds[pid] {
		if d := s.cfg.Origins[o].Device; s.up[o] {
			if d == prev {
				return fmt.Errorf("bgp: %s originates %v twice", s.cfg.Net.Device(d).Name, s.prefixes[pid])
			}
			if prev = d; r.dist[d] == -1 {
				r.dist[d], r.src[d] = 0, o
				level = append(level, d)
			}
		}
	}
	r.hops = r.hops[:0]
	rt, devs := &Route{Prefix: s.prefixes[pid]}, s.cfg.Net.Devices
	for dist := int32(0); len(level) > 0; dist++ {
		next = next[:0]
		for _, u := range level {
			for _, p := range s.peers[u] {
				if r.dist[p.nb] == -1 {
					r.dist[p.nb] = -3
					next = append(next, p.nb)
				}
			}
		}
		slices.Sort(next)
		level = level[:0]
		for _, v := range next {
			r.dist[v], r.lo[v] = -1, int32(len(r.hops))
			for i, p := range s.peers[v] {
				if u := p.nb; r.dist[u] == dist && (i == 0 || s.peers[v][i-1].nb != u) {
					rt.Origin, rt.Dist = s.cfg.Origins[r.src[u]].Origin, int(dist)
					if s.cfg.Export == nil || s.cfg.Export(devs[u], devs[v], rt) {
						r.hops = append(r.hops, u)
					}
				}
			}
			if r.hi[v] = int32(len(r.hops)); r.hi[v] > r.lo[v] {
				r.dist[v], r.src[v] = dist+1, r.src[r.hops[r.lo[v]]]
				level = append(level, v)
			}
		}
	}
	return nil
}

// build re-converges the dirty prefixes and installs the FIB into net
// (which has the configuration's topology) device by device: BGP routes
// in prefix-ID order, then statics, connected /31s and loopbacks, so that
// rule IDs are stable across builds of the same configuration (coverage
// traces and network JSON reference rules by ID). A non-nil res gets the
// RIBs.
func (s *sim) build(net *netmodel.Network, res *Result) error {
	if s.err != nil {
		return s.err
	}
	for pid, dirty := range s.dirty {
		if dirty {
			if err := s.converge(pid); err != nil {
				return err
			}
			s.dirty[pid] = false
		}
	}
	var outs []netmodel.IfaceID
	var local []netip.Prefix
	for d := range net.Devices {
		dev := netmodel.DeviceID(d)
		if res != nil {
			res.RIB[d] = make(map[netip.Prefix]*Route, len(s.prefixes))
		}
		add := func(p netip.Prefix, a netmodel.Action, origin netmodel.RouteOrigin, dist int32, hops []netmodel.DeviceID) {
			net.AddFIBRule(dev, netmodel.MatchDst(p), a, origin)
			if res != nil {
				res.RIB[d][p] = &Route{Prefix: p, Origin: origin, Dist: int(dist), NextHops: hops}
			}
		}
		// forward resolves next-hop devices to dev's interfaces, sorted.
		forward := func(hops []netmodel.DeviceID) netmodel.Action {
			start, ps := len(outs), s.peers[d]
			for _, nb := range hops {
				i, _ := slices.BinarySearchFunc(ps, nb, func(p peer, nb netmodel.DeviceID) int { return int(p.nb - nb) })
				for ; i < len(ps) && ps[i].nb == nb; i++ {
					outs = append(outs, ps[i].ifc)
				}
			}
			slices.Sort(outs[start:])
			return netmodel.Action{Kind: netmodel.ActForward, OutIfaces: outs[start:len(outs):len(outs)]}
		}

		// A static for the prefix wins even over the device's own
		// origination (B2's null-routed default in §2): dist is -2.
		for pid := range s.routes {
			r := &s.routes[pid]
			dist := r.dist[d]
			if dist < 0 {
				continue
			}
			o := &s.cfg.Origins[r.src[d]]
			a, hops := netmodel.Action{Kind: netmodel.ActDeliver}, []netmodel.DeviceID(nil)
			if dist > 0 {
				hops = r.hops[r.lo[d]:r.hi[d]:r.hi[d]]
				a = forward(hops)
			} else if o.EdgeIface != netmodel.NoIface {
				a = netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{o.EdgeIface}}
			}
			add(s.prefixes[pid], a, o.Origin, dist, hops)
		}

		local = local[:0]
		for _, st := range s.statics[d] {
			p, origin, a := st.Prefix.Masked(), st.Origin, netmodel.Action{Kind: netmodel.ActDrop}
			if origin == "" && p.Bits() == 0 {
				origin = netmodel.OriginDefault
			} else if origin == "" {
				origin = netmodel.OriginStatic
			}
			if !st.Null {
				if a = forward(st.NextHops); len(a.OutIfaces) == 0 {
					return fmt.Errorf("bgp: static %v on %s has no resolvable next hops", p, net.Device(dev).Name)
				}
			}
			add(p, a, origin, 0, st.NextHops)
			local = append(local, p)
		}

		// Connected /31s (never redistributed, §7.2) and loopbacks are
		// delivered locally unless a route for the prefix is installed.
		deliver := func(p netip.Prefix, origin netmodel.RouteOrigin) {
			if pid, ok := slices.BinarySearchFunc(s.prefixes, p, comparePrefix); (ok && s.routes[pid].dist[d] >= 0) || slices.Contains(local, p) {
				return
			}
			add(p, netmodel.Action{Kind: netmodel.ActDeliver}, origin, 0, nil)
			local = append(local, p)
		}
		for _, ifid := range net.Device(dev).Ifaces {
			if ifc := net.Iface(ifid); ifc.Addr.IsValid() && !ifc.External {
				deliver(netip.PrefixFrom(ifc.Addr.Addr(), ifc.Addr.Bits()).Masked(), netmodel.OriginConnected)
			}
		}
		for _, lb := range net.Device(dev).Loopbacks {
			deliver(lb.Masked(), netmodel.OriginInternal)
		}
	}
	return nil
}

// comparePrefix orders prefixes by address, then length.
func comparePrefix(a, b netip.Prefix) int {
	return cmp.Or(a.Addr().Compare(b.Addr()), a.Bits()-b.Bits())
}
