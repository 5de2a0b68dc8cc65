package testkit

import (
	"net/netip"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/netmodel"
)

// This file implements the two tests the paper's case study leaves as
// future work: a check for wide-area routes ("the challenge is that
// there is not yet any specification of the routes to expect from the
// wide-area network", §7.3) and a check for host-facing interfaces ("we
// discovered that host-facing interfaces are not being tested ... will
// be developing another new test for these interfaces soon"). Together
// with the §7.3 suite they close the remaining coverage gaps Figure 6d
// shows.

// WideAreaRouteCheck validates, given a specification of the prefixes
// the WAN is expected to announce and the devices that peer with it,
// that every eligible device forwards each wide-area prefix through the
// full set of shortest paths toward the nearest WAN-peering device.
// Local symbolic, like InternalRouteCheck but with anycast origins.
type WideAreaRouteCheck struct {
	// Prefixes is the WAN route specification.
	Prefixes []netip.Prefix
	// WANDevices are the devices that peer with the WAN (anycast
	// origins).
	WANDevices []netmodel.DeviceID
	// Eligible restricts checked devices; nil checks the layers that
	// carry wide-area routes (spines and hubs).
	Eligible func(d *netmodel.Device) bool
}

// Name implements Test.
func (WideAreaRouteCheck) Name() string { return "WideAreaRouteCheck" }

// Kind implements Test.
func (WideAreaRouteCheck) Kind() Kind { return LocalSymbolic }

// Run implements Test.
func (t WideAreaRouteCheck) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	if len(t.Prefixes) == 0 || len(t.WANDevices) == 0 {
		return res
	}
	eligible := t.Eligible
	if eligible == nil {
		eligible = func(d *netmodel.Device) bool {
			return d.Role == netmodel.RoleSpine || d.Role == netmodel.RoleHub
		}
	}

	// Multi-source BFS from the WAN-peering devices (distance 0).
	paths := newShortestPaths(net)
	dist := paths.from(t.WANDevices...)

	// The union of all WAN prefixes, marked per exercised device.
	pkts := net.Space.Empty()
	for _, p := range t.Prefixes {
		pkts = pkts.Union(net.Space.DstPrefix(p))
	}

	var hops []netmodel.DeviceID
	for _, d := range net.Devices {
		if dist[d.ID] <= 0 || !eligible(d) {
			continue
		}
		want := paths.closer(d.ID)
		tracker.MarkPacket(dataplane.Injected(d.ID), pkts)
		for _, p := range t.Prefixes {
			res.Checks++
			rule := findFIBRule(net, d.ID, p.Masked())
			if rule == nil {
				res.failf(d.ID, "no route for wide-area prefix %v", p)
				continue
			}
			if rule.Action.Kind != netmodel.ActForward {
				res.failf(d.ID, "wide-area route %v does not forward", p)
				continue
			}
			hops = nextHops(net, rule.Action, hops)
			if !sameDevices(hops, want) {
				res.failf(d.ID, "wide-area route %v uses next hops %v, want shortest paths toward the WAN", p, hops)
			}
		}
	}
	return res
}

// HostInterfaceCheck validates that every device owning host subnets
// forwards each subnet out the edge interface carrying it — the test for
// host-facing interfaces the case study planned to add. Local symbolic.
type HostInterfaceCheck struct{}

// Name implements Test.
func (HostInterfaceCheck) Name() string { return "HostInterfaceCheck" }

// Kind implements Test.
func (HostInterfaceCheck) Kind() Kind { return LocalSymbolic }

// Run implements Test.
func (t HostInterfaceCheck) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	for _, d := range net.Devices {
		if len(d.Subnets) == 0 {
			continue
		}
		marked := net.Space.Empty()
		for _, p := range d.Subnets {
			res.Checks++
			marked = marked.Union(net.Space.DstPrefix(p))

			// The edge interface that owns the subnet.
			var want netmodel.IfaceID = netmodel.NoIface
			for _, ifid := range d.Ifaces {
				ifc := net.Iface(ifid)
				if ifc.External && ifc.Addr == p {
					want = ifid
					break
				}
			}
			if want == netmodel.NoIface {
				res.failf(d.ID, "subnet %v has no host-facing interface", p)
				continue
			}
			rule := findFIBRule(net, d.ID, p.Masked())
			if rule == nil {
				res.failf(d.ID, "no route for own subnet %v", p)
				continue
			}
			if rule.Action.Kind != netmodel.ActForward ||
				len(rule.Action.OutIfaces) != 1 || rule.Action.OutIfaces[0] != want {
				res.failf(d.ID, "subnet %v not forwarded out its host interface", p)
			}
		}
		tracker.MarkPacket(dataplane.Injected(d.ID), marked)
	}
	return res
}
