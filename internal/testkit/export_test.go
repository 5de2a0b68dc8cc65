package testkit

import (
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// contractTest is a shortest-path contract test.
type contractTest interface {
	Test
	contract(net *netmodel.Network) contract
}

// RunByRule runs a shortest-path contract test (InternalRouteCheck,
// ToRContract, AggCanReachTorLoopback) with contractCheckByRule in place
// of contractCheck.
func RunByRule(t Test, net *netmodel.Network, tracker core.Tracker) Result {
	ct := t.(contractTest)
	res := Result{Name: t.Name(), Kind: t.Kind()}
	contractCheckByRule(net, tracker, &res, ct.contract(net))
	return res
}

// contractCheckByRule is contractCheck answering each check from the
// rule itself: the FIB rule for the exact prefix (findFIBRule), its
// action's kind, and its next hops resolved and sorted (nextHops). It
// marks every prefix set a device checked, in check order. It is the
// oracle for the class-numbering lookup: results, failures and their
// order, and the trace must match.
func contractCheckByRule(net *netmodel.Network, tracker core.Tracker, res *Result, c contract) {
	marked := make([][]hdr.Set, len(net.Devices))
	paths := newShortestPaths(net)
	var hops []netmodel.DeviceID

	for _, origin := range c.origins {
		prefs := c.prefixes(net.Device(origin))
		if len(prefs) == 0 {
			continue
		}
		sets := make([]hdr.Set, len(prefs))
		for i, p := range prefs {
			sets[i] = net.Space.DstPrefix(p)
		}
		dist := paths.from(origin)
		for _, d := range net.Devices {
			if d.ID == origin || dist[d.ID] <= 0 {
				continue
			}
			if c.eligible != nil && !c.eligible(d) {
				continue
			}
			want := paths.closer(d.ID)
			marked[d.ID] = append(marked[d.ID], sets...)
			for _, p := range prefs {
				res.Checks++
				rule := findFIBRule(net, d.ID, p)
				if rule == nil {
					res.failf(d.ID, "no route for %v", p)
					continue
				}
				if rule.Action.Kind != netmodel.ActForward {
					res.failf(d.ID, "route for %v does not forward", p)
					continue
				}
				hops = nextHops(net, rule.Action, hops)
				if !sameDevices(hops, want) {
					res.failf(d.ID, "route for %v uses next hops %v, want full shortest-path set", p, hops)
				}
			}
		}
	}
	for dev, sets := range marked {
		if len(sets) > 0 {
			tracker.MarkPacket(dataplane.Injected(netmodel.DeviceID(dev)), net.Space.UnionAll(sets))
		}
	}
}
