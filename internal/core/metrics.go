package core

import (
	"context"

	"yardstick/internal/bdd"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// fold aggregates the view's cached component coverages and weights over
// ids (every one of the n components when ids is nil), in the order
// given.
func fold[ID ~int32](ids []ID, n int, val func(ID) (v, w float64), kind AggKind) float64 {
	acc := NewAccum(kind)
	if ids == nil {
		for i := range n {
			acc.Add(val(ID(i)))
		}
	}
	for _, id := range ids {
		acc.Add(val(id))
	}
	return acc.Value()
}

// RuleCoverage aggregates rule coverage across the given rules (all rules
// in the network when rules is nil).
func RuleCoverage(c *Coverage, rules []netmodel.RuleID, kind AggKind) float64 {
	c.Refresh()
	return fold(rules, len(c.rules), func(r netmodel.RuleID) (float64, float64) {
		return c.rules[r].frac, c.rules[r].weight
	}, kind)
}

// DeviceCoverage aggregates device coverage (DeviceSpec per device)
// across the given devices (all devices when devs is nil). Each device's
// weight is the packet space its rules handle.
func DeviceCoverage(c *Coverage, devs []netmodel.DeviceID, kind AggKind) float64 {
	c.Refresh()
	return fold(devs, len(c.dev), func(d netmodel.DeviceID) (float64, float64) { return c.dev[d], c.devWeight[d] }, kind)
}

// InterfaceCoverage aggregates outgoing-interface coverage (OutIfaceSpec
// per interface) across the given interfaces (all interfaces when ifaces
// is nil).
func InterfaceCoverage(c *Coverage, ifaces []netmodel.IfaceID, kind AggKind) float64 {
	c.Refresh()
	return fold(ifaces, len(c.ifc), func(i netmodel.IfaceID) (float64, float64) { return c.ifc[i], c.ifcWeight[i] }, kind)
}

// InIfaceCoverage aggregates incoming-interface coverage — how well the
// state responsible for packets *entering* each interface is tested —
// across the given interfaces (all interfaces when nil).
func InIfaceCoverage(c *Coverage, ifaces []netmodel.IfaceID, kind AggKind) float64 {
	if ifaces == nil {
		ifaces = make([]netmodel.IfaceID, len(c.Net.Ifaces))
		for i := range ifaces {
			ifaces[i] = netmodel.IfaceID(i)
		}
	}
	acc := NewAccum(kind)
	for _, ifid := range ifaces {
		s := InIfaceSpec(c.Net, ifid)
		w := 0.0
		for _, wi := range s.Weights {
			w += wi
		}
		acc.Add(ComponentCoverage(c, s), w)
	}
	return acc.Value()
}

// PathCoverageResult reports an aggregate over the path universe.
type PathCoverageResult struct {
	Value    float64
	Paths    int  // paths processed
	Complete bool // false when a budget cut enumeration short
}

// PathCoverage enumerates the path universe from the given starts
// (EdgeStarts when nil) and aggregates Equation-3 coverage per path,
// streaming — paths are never materialized (§5.2 Step 3). Each path's
// weight is the size of its guard. Cancelling ctx stops enumeration;
// the result then carries the partial aggregate with Complete=false.
func PathCoverage(ctx context.Context, c *Coverage, starts []dataplane.Start, opts dataplane.EnumOpts, kind AggKind) PathCoverageResult {
	if starts == nil {
		starts = dataplane.EdgeStarts(c.Net)
	}
	acc := NewAccum(kind)
	n, complete := dataplane.EnumeratePaths(ctx, c.Net, starts, opts, func(p dataplane.Path) bool {
		v := PathMeasure(c, GuardedString{Rules: p.Rules})
		acc.Add(clamp01(v), p.Guard.Fraction())
		return true
	})
	return PathCoverageResult{Value: acc.Value(), Paths: n, Complete: complete}
}

// FlowCoverage computes coverage of one flow (start location and header
// space) per §4.3.2: the weighted average of end-to-end path coverage
// across the flow's paths.
func FlowCoverage(c *Coverage, start dataplane.Loc, flow hdr.Set) float64 {
	return ComponentCoverage(c, FlowSpec(c.Net, start, flow))
}

// DevicesByRole returns the devices with the given role.
func DevicesByRole(net *netmodel.Network, role netmodel.Role) []netmodel.DeviceID {
	var out []netmodel.DeviceID
	for _, d := range net.Devices {
		if d.Role == role {
			out = append(out, d.ID)
		}
	}
	return out
}

// IfacesOfDevices returns every interface on the given devices.
func IfacesOfDevices(net *netmodel.Network, devs []netmodel.DeviceID) []netmodel.IfaceID {
	var out []netmodel.IfaceID
	for _, dev := range devs {
		out = append(out, net.Device(dev).Ifaces...)
	}
	return out
}

// RulesOfDevices returns every rule on the given devices.
func RulesOfDevices(net *netmodel.Network, devs []netmodel.DeviceID) []netmodel.RuleID {
	n := 0
	for _, dev := range devs {
		n += len(net.Devices[dev].ACL) + len(net.Devices[dev].FIB)
	}
	if n == 0 {
		return nil // what appending nothing yields; the folds read nil as "every rule"
	}
	out := make([]netmodel.RuleID, 0, n)
	for _, dev := range devs {
		out = append(append(out, net.Devices[dev].ACL...), net.Devices[dev].FIB...)
	}
	return out
}

// UncoveredRules returns the rules with zero coverage among the given set
// (all rules when nil) — the drill-down the case study used to find the
// testing gaps (§7.2).
func UncoveredRules(c *Coverage, rules []netmodel.RuleID) []netmodel.RuleID {
	c.Refresh()
	if rules == nil {
		rules = make([]netmodel.RuleID, len(c.Net.Rules))
		for i := range rules {
			rules[i] = netmodel.RuleID(i)
		}
	}
	var out []netmodel.RuleID
	for _, rid := range rules {
		if c.rules[rid].covered == bdd.False && !c.Net.Rule(rid).MatchSet().IsEmpty() {
			out = append(out, rid)
		}
	}
	return out
}

// UncoveredByOrigin buckets uncovered rules by route origin — the §7.2
// categorization (internal, connected, wide-area, …).
func UncoveredByOrigin(c *Coverage, rules []netmodel.RuleID) map[netmodel.RouteOrigin]int {
	out := make(map[netmodel.RouteOrigin]int)
	for _, rid := range UncoveredRules(c, rules) {
		out[c.Net.Rule(rid).Origin]++
	}
	return out
}
