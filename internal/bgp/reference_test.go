package bgp

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"yardstick/internal/netmodel"
)

// ribEntry is the mutable per-device per-prefix state during iteration.
type ribEntry struct {
	dist     int
	origin   netmodel.RouteOrigin
	nexthops map[netmodel.DeviceID]bool
	// origination bookkeeping
	originates bool
	edgeIface  netmodel.IfaceID
}

// runReference is the whole-network worklist simulator Run replaced: every
// device re-advertises its whole RIB whenever it changes, until nothing
// does. It is the oracle the per-prefix Run is held to.
func runReference(cfg Config) (*Result, error) {
	net := cfg.Net
	if net == nil {
		return nil, fmt.Errorf("bgp: Config.Net is nil")
	}
	if net.MatchSetsComputed() {
		return nil, fmt.Errorf("bgp: network is frozen (match sets already computed)")
	}
	nDev := len(net.Devices)

	// Statics indexed by device and prefix: these devices neither select
	// nor advertise BGP routes for the prefix.
	staticAt := make([]map[netip.Prefix]*StaticRoute, nDev)
	for i := range staticAt {
		staticAt[i] = make(map[netip.Prefix]*StaticRoute)
	}
	for i := range cfg.Statics {
		s := &cfg.Statics[i]
		if !s.Prefix.IsValid() {
			return nil, fmt.Errorf("bgp: static route on %s has invalid prefix", net.Device(s.Device).Name)
		}
		if _, dup := staticAt[s.Device][s.Prefix.Masked()]; dup {
			return nil, fmt.Errorf("bgp: duplicate static for %v on %s", s.Prefix, net.Device(s.Device).Name)
		}
		staticAt[s.Device][s.Prefix.Masked()] = s
	}

	ribs := make([]map[netip.Prefix]*ribEntry, nDev)
	for i := range ribs {
		ribs[i] = make(map[netip.Prefix]*ribEntry)
	}

	// Seed originations.
	for _, o := range cfg.Origins {
		p := o.Prefix.Masked()
		if e, dup := ribs[o.Device][p]; dup && e.originates {
			return nil, fmt.Errorf("bgp: %s originates %v twice", net.Device(o.Device).Name, p)
		}
		ribs[o.Device][p] = &ribEntry{
			dist:       0,
			origin:     o.Origin,
			nexthops:   map[netmodel.DeviceID]bool{},
			originates: true,
			edgeIface:  o.EdgeIface,
		}
	}

	// Precompute adjacency.
	neighbors := make([][]netmodel.DeviceID, nDev)
	for d := range neighbors {
		neighbors[d] = net.Neighbors(netmodel.DeviceID(d))
	}

	// Worklist fixpoint. A device re-advertises whenever its RIB changed.
	inQueue := make([]bool, nDev)
	var queue []netmodel.DeviceID
	push := func(d netmodel.DeviceID) {
		if !inQueue[d] {
			inQueue[d] = true
			queue = append(queue, d)
		}
	}
	for d := 0; d < nDev; d++ {
		if len(ribs[d]) > 0 {
			push(netmodel.DeviceID(d))
		}
	}

	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		du := net.Device(u)
		for p, eu := range ribs[u] {
			// Statics suppress advertisement of the prefix.
			if _, blocked := staticAt[u][p]; blocked {
				continue
			}
			rt := &Route{Prefix: p, Origin: eu.origin, Dist: eu.dist}
			for _, v := range neighbors[u] {
				dv := net.Device(v)
				if cfg.Export != nil && !cfg.Export(du, dv, rt) {
					continue
				}
				// Receivers with a static or an origination for the
				// prefix ignore BGP updates for it.
				if _, hasStatic := staticAt[v][p]; hasStatic {
					continue
				}
				ev := ribs[v][p]
				if ev != nil && ev.originates {
					continue
				}
				cand := eu.dist + 1
				switch {
				case ev == nil || cand < ev.dist:
					ribs[v][p] = &ribEntry{
						dist:     cand,
						origin:   eu.origin,
						nexthops: map[netmodel.DeviceID]bool{u: true},
					}
					push(v)
				case cand == ev.dist && !ev.nexthops[u]:
					ev.nexthops[u] = true
					push(v)
				}
			}
		}
	}

	// Install FIB state.
	res := &Result{RIB: make([]map[netip.Prefix]*Route, nDev)}
	for d := 0; d < nDev; d++ {
		dev := netmodel.DeviceID(d)
		res.RIB[d] = make(map[netip.Prefix]*Route, len(ribs[d]))

		// BGP routes, in deterministic prefix order so rule IDs are
		// stable across builds of the same configuration (coverage
		// traces and network JSON reference rules by ID). A static for
		// the same prefix wins even over the device's own origination
		// (B2's null-routed default in §2).
		for _, p := range refSortedPrefixes(ribs[d]) {
			e := ribs[d][p]
			if _, overridden := staticAt[d][p]; overridden {
				continue
			}
			rt := &Route{Prefix: p, Origin: e.origin, Dist: e.dist}
			var action netmodel.Action
			if e.originates {
				if e.edgeIface != netmodel.NoIface {
					action = netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{e.edgeIface}}
				} else {
					action = netmodel.Action{Kind: netmodel.ActDeliver}
				}
			} else {
				var outs []netmodel.IfaceID
				for nb := range e.nexthops {
					rt.NextHops = append(rt.NextHops, nb)
					outs = append(outs, net.IfaceTo(dev, nb)...)
				}
				if len(outs) == 0 {
					// Unreachable entry; skip.
					continue
				}
				refSortIfaces(outs)
				action = netmodel.Action{Kind: netmodel.ActForward, OutIfaces: outs}
			}
			refSortDevices(rt.NextHops)
			net.AddFIBRule(dev, netmodel.MatchDst(p), action, e.origin)
			res.RIB[d][p] = rt
		}

		// Static routes, also in deterministic order.
		for _, p := range refSortedPrefixes(staticAt[d]) {
			s := staticAt[d][p]
			origin := s.Origin
			if origin == "" {
				if p.Bits() == 0 {
					origin = netmodel.OriginDefault
				} else {
					origin = netmodel.OriginStatic
				}
			}
			var action netmodel.Action
			if s.Null {
				action = netmodel.Action{Kind: netmodel.ActDrop}
			} else {
				var outs []netmodel.IfaceID
				for _, nb := range s.NextHops {
					outs = append(outs, net.IfaceTo(dev, nb)...)
				}
				if len(outs) == 0 {
					return nil, fmt.Errorf("bgp: static %v on %s has no resolvable next hops", p, net.Device(dev).Name)
				}
				refSortIfaces(outs)
				action = netmodel.Action{Kind: netmodel.ActForward, OutIfaces: outs}
			}
			net.AddFIBRule(dev, netmodel.MatchDst(p), action, origin)
			res.RIB[d][p] = &Route{Prefix: p, Origin: origin, Dist: 0, NextHops: s.NextHops}
		}

		// Connected /31s: local delivery, never redistributed (§7.2).
		for _, ifid := range net.Device(dev).Ifaces {
			ifc := net.Iface(ifid)
			if !ifc.Addr.IsValid() || ifc.External {
				continue
			}
			p := netip.PrefixFrom(ifc.Addr.Addr(), ifc.Addr.Bits()).Masked()
			if _, dup := res.RIB[d][p]; dup {
				continue
			}
			net.AddFIBRule(dev, netmodel.MatchDst(p), netmodel.Action{Kind: netmodel.ActDeliver}, netmodel.OriginConnected)
			res.RIB[d][p] = &Route{Prefix: p, Origin: netmodel.OriginConnected}
		}

		// Loopbacks: delivered locally at the owner. (Their BGP
		// propagation happens via Origins, set up by the topology
		// generator.)
		for _, lb := range net.Device(dev).Loopbacks {
			p := lb.Masked()
			if _, dup := res.RIB[d][p]; dup {
				continue
			}
			net.AddFIBRule(dev, netmodel.MatchDst(p), netmodel.Action{Kind: netmodel.ActDeliver}, netmodel.OriginInternal)
			res.RIB[d][p] = &Route{Prefix: p, Origin: netmodel.OriginInternal}
		}
	}
	return res, nil
}

// refSortedPrefixes returns a map's prefix keys ordered by address then
// length.
func refSortedPrefixes[V any](m map[netip.Prefix]V) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

func refSortIfaces(s []netmodel.IfaceID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func refSortDevices(s []netmodel.DeviceID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestRunMatchesReference holds Run to the worklist simulator on seeded
// random topologies: parallel links, edge interfaces, a link subnet
// originated into BGP, loopbacks with and
// without an origination, prefixes originated at several devices (all
// with one RouteOrigin, as every generator does: on a tie between
// different origins the worklist's choice depends on map order), statics
// with next hops and null statics, some on originating devices, and a
// role-based export filter. It compares EncodeJSON bytes and Result.RIB.
func TestRunMatchesReference(t *testing.T) {
	roles := []netmodel.Role{netmodel.RoleHub, netmodel.RoleSpine, netmodel.RoleAgg, netmodel.RoleToR}
	export := func(from, to *netmodel.Device, rt *Route) bool {
		return !(rt.Origin == netmodel.OriginWideArea && (to.Role == netmodel.RoleAgg || to.Role == netmodel.RoleToR)) &&
			!(from.Role == netmodel.RoleToR && to.Role == netmodel.RoleAgg && rt.Origin == netmodel.OriginDefault)
	}
	compared := 0
	for trial := 0; trial < 200; trial++ {
		build := func() (*netmodel.Network, Config) {
			r := rand.New(rand.NewSource(int64(trial)))
			n := netmodel.New()
			nDev := r.Intn(14) + 2
			for i := 0; i < nDev; i++ {
				n.AddDevice(fmt.Sprintf("d%d", i), roles[r.Intn(len(roles))], uint32(65000+i))
			}
			link := uint32(0x0a800000)
			connect := func(a, b int) {
				p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(link >> 24), byte(link >> 16), byte(link >> 8), byte(link)}), 31)
				link += 2
				n.Connect(netmodel.DeviceID(a), netmodel.DeviceID(b), p)
			}
			for i := 1; i < nDev; i++ {
				connect(r.Intn(i), i)
			}
			for e := r.Intn(2 * nDev); e > 0; e-- {
				if a, b := r.Intn(nDev), r.Intn(nDev); a != b {
					connect(a, b)
				}
			}
			cfg := Config{Net: n}
			if r.Intn(3) > 0 {
				cfg.Export = export
			}
			origins := []netmodel.RouteOrigin{netmodel.OriginInternal, netmodel.OriginDefault, netmodel.OriginWideArea}
			for p := r.Intn(6); p >= 0; p-- {
				prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(p), 0, 0}), 16+r.Intn(9))
				switch p {
				case 0:
					prefix = netip.MustParsePrefix("0.0.0.0/0")
				case 1:
					prefix = netip.MustParsePrefix("10.128.0.0/31") // the first link's subnet
				}
				origin := origins[r.Intn(len(origins))]
				for _, d := range r.Perm(nDev)[:1+r.Intn(min(3, nDev))] {
					o := Origination{Device: netmodel.DeviceID(d), Prefix: prefix, Origin: origin, EdgeIface: netmodel.NoIface}
					if r.Intn(2) == 0 {
						o.EdgeIface = n.AddEdgeIface(o.Device, "edge", netip.Prefix{})
					}
					cfg.Origins = append(cfg.Origins, o)
				}
			}
			for d := 0; d < nDev; d++ {
				lb := netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(d)}), 32)
				n.Device(netmodel.DeviceID(d)).Loopbacks = append(n.Device(netmodel.DeviceID(d)).Loopbacks, lb)
				if r.Intn(4) > 0 {
					cfg.Origins = append(cfg.Origins, Origination{Device: netmodel.DeviceID(d), Prefix: lb, Origin: netmodel.OriginInternal, EdgeIface: netmodel.NoIface})
				}
			}
			for s := r.Intn(4); s > 0; s-- {
				d := netmodel.DeviceID(r.Intn(nDev))
				st := StaticRoute{Device: d, Prefix: cfg.Origins[r.Intn(len(cfg.Origins))].Prefix, Null: r.Intn(2) == 0}
				if r.Intn(3) == 0 {
					st.Prefix = netip.MustParsePrefix("172.16.0.0/12")
				}
				if !st.Null {
					st.NextHops = n.Neighbors(d)[:1]
					if r.Intn(3) == 0 {
						st.Origin = netmodel.OriginStatic
					}
				}
				dup := false
				for _, o := range cfg.Statics {
					dup = dup || (o.Device == d && o.Prefix == st.Prefix)
				}
				if !dup {
					cfg.Statics = append(cfg.Statics, st)
				}
			}
			return n, cfg
		}
		n1, cfg1 := build()
		n2, cfg2 := build()
		want, err1 := runReference(cfg1)
		got, err2 := Run(cfg2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: reference err %v, Run err %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		var js1, js2 bytes.Buffer
		if err := n1.EncodeJSON(&js1); err != nil {
			t.Fatal(err)
		}
		if err := n2.EncodeJSON(&js2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
			t.Fatalf("trial %d: network JSON differs from the reference's\nwant %s\ngot  %s", trial, js1.Bytes(), js2.Bytes())
		}
		if !reflect.DeepEqual(want.RIB, got.RIB) {
			t.Fatalf("trial %d: RIB differs from the reference's\nwant %v\ngot  %v", trial, want.RIB, got.RIB)
		}
		compared++
	}
	if compared < 190 {
		t.Fatalf("only %d of 200 trials converged", compared)
	}
}
