package dataplane

import (
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// ReachByRule is Reach as it was before the forwarding index: every
// device applied rule by rule through ApplyDevice, one Intersect per
// rule. It is the flood oracle.
func ReachByRule(net *netmodel.Network, start Loc, pkts hdr.Set, opts ReachOpts) (*Reachability, error) {
	return reach(net, start, pkts, opts, applyRules)
}

func applyRules(f *flood, dev netmodel.DeviceID, fresh hdr.Set) {
	res, net := f.res, f.net
	dr := ApplyDevice(net, dev, fresh)
	if !dr.NoRoute.IsEmpty() {
		res.NoRoute[dev] = unionInto(net, res.NoRoute[dev], dr.NoRoute)
	}
	if !dr.ImplicitDeny.IsEmpty() {
		res.Dropped[dev] = unionInto(net, res.Dropped[dev], dr.ImplicitDeny)
	}
	for _, hit := range dr.Hits {
		switch hit.Rule.Action.Kind {
		case netmodel.ActDrop:
			res.Dropped[dev] = unionInto(net, res.Dropped[dev], hit.Pkts)
		case netmodel.ActDeliver:
			res.Delivered[dev] = unionInto(net, res.Delivered[dev], hit.Pkts)
		case netmodel.ActForward:
			for _, em := range hit.Out {
				if em.External {
					res.Egressed[em.OutIface] = unionInto(net, res.Egressed[em.OutIface], em.Pkts)
				} else {
					f.enqueue(em.Next, em.Pkts)
				}
			}
		}
	}
}

// TracerouteWalk is Traceroute with the first-match walk forced on every
// device: the oracle for the longest-prefix lookup.
func TracerouteWalk(net *netmodel.Network, start Loc, pkt hdr.Packet) Trace {
	return traceroute(net, start, pkt, true)
}
