// Package testkit implements network tests spanning the paper's full
// taxonomy (Figure 2) — state inspection, local and end-to-end, concrete
// and symbolic — including every named test from the case study (§7) and
// the performance evaluation (§8):
//
//	DefaultRouteCheck       state inspection
//	ConnectedRouteCheck     state inspection
//	InternalRouteCheck      local symbolic (RCDC-style contracts)
//	AggCanReachTorLoopback  local symbolic
//	ToRContract             local symbolic
//	ToRReachability         end-to-end symbolic
//	ToRPingmesh             end-to-end concrete
//
// Every test does the two things §3 distinguishes: it asserts expected
// behavior (producing a pass/fail Result) and reports what it exercised
// through the core.Tracker APIs (markPacket/markRule, §5.1).
package testkit

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// Kind classifies a test per Figure 2.
type Kind string

// Test kinds.
const (
	StateInspection Kind = "state-inspection"
	LocalConcrete   Kind = "local-concrete"
	LocalSymbolic   Kind = "local-symbolic"
	E2EConcrete     Kind = "e2e-concrete"
	E2ESymbolic     Kind = "e2e-symbolic"
)

// Failure is one failed assertion.
type Failure struct {
	Device netmodel.DeviceID
	Detail string
}

// Result is the outcome of one test run.
type Result struct {
	Name     string
	Kind     Kind
	Checks   int // assertions evaluated
	Failures []Failure
	// Err is set when the test did not run to completion — it panicked
	// or was cancelled. An errored result is a
	// third state distinct from pass and fail: its assertions (and its
	// coverage contribution) are incomplete, so it neither vouches for
	// the network nor indicts it.
	Err string
}

// Pass reports whether the test ran to completion with all assertions
// holding. An errored test does not pass.
func (r Result) Pass() bool { return r.Err == "" && len(r.Failures) == 0 }

// Errored reports whether the test terminated abnormally (panic,
// cancellation) rather than completing with a verdict.
func (r Result) Errored() bool { return r.Err != "" }

// Status returns "pass", "fail", or "error".
func (r Result) Status() string {
	switch {
	case r.Errored():
		return "error"
	case len(r.Failures) > 0:
		return "fail"
	}
	return "pass"
}

func (r *Result) failf(dev netmodel.DeviceID, format string, args ...any) {
	r.Failures = append(r.Failures, Failure{Device: dev, Detail: fmt.Sprintf(format, args...)})
}

// Test is one network test.
type Test interface {
	Name() string
	Kind() Kind
	// Run executes the test against the network, reporting coverage to
	// the tracker and returning assertion results.
	Run(net *netmodel.Network, tracker core.Tracker) Result
}

// ContextTest is optionally implemented by tests that can observe
// cancellation while running (long symbolic floods, injected chaos
// tests). Suite.Run prefers RunContext when a test provides it; plain
// tests are still cancelled between tests and — for symbolic work —
// by the space's watched context (see hdr.Space.WatchContext).
type ContextTest interface {
	Test
	RunContext(ctx context.Context, net *netmodel.Network, tracker core.Tracker) Result
}

// Splitter is optionally implemented by a test whose work divides by
// source device. Split(n), for n ≥ 1, returns n tests of the same name
// and kind: part k runs the sources on the devices in contiguous range
// k of the devices that host a subnet, in device order, so the parts
// together run every source once, in the whole test's order. Splittable
// tests agree on the ranges: part k of ToRPingmesh pings from the
// sources whose floods part k of ToRReachability marks, so on one trace
// its hops are already covered.
type Splitter interface {
	Test
	Split(n int) []Test
}

// SplitTogether reports, per test of the suite, whether it belongs to
// the suite's split group: every Splitter does when the suite holds two
// or more of them, and none does otherwise. A group runs on one trace
// (part k of each test side by side, or the whole tests in one job), so
// each ping finds its hops covered by the flood from its source. A lone
// Splitter shares no hops with anything, and split it would only pay its
// class builds once per part. A nil entry is no Splitter.
func (s Suite) SplitTogether() []bool {
	in := make([]bool, len(s))
	n := 0
	for i, t := range s {
		if _, ok := t.(Splitter); ok {
			in[i] = true
			n++
		}
	}
	if n < 2 {
		clear(in)
	}
	return in
}

// sourcePart selects the sources a splittable test runs: part k of n;
// the zero value runs them all.
type sourcePart struct{ k, n int }

// split returns the n parts of a splittable test, part k built by part
// from sourcePart{k, n}.
func split(n int, part func(sourcePart) Test) []Test {
	parts := make([]Test, n)
	for k := range parts {
		parts[k] = part(sourcePart{k, n})
	}
	return parts
}

// sources reports, by DeviceID, the devices the part runs sources on.
func (p sourcePart) sources(net *netmodel.Network) []bool {
	var hosts []netmodel.DeviceID
	for _, d := range net.Devices {
		if len(d.Subnets) > 0 {
			hosts = append(hosts, d.ID)
		}
	}
	if p.n > 0 {
		hosts = hosts[p.k*len(hosts)/p.n : (p.k+1)*len(hosts)/p.n]
	}
	in := make([]bool, len(net.Devices))
	for _, d := range hosts {
		in[d] = true
	}
	return in
}

// Suite is an ordered collection of tests.
type Suite []Test

// Run executes every test, accumulating coverage in the tracker. The
// context is checked between tests: once it is done, the remaining
// tests are skipped and the partial results are returned (callers pair
// them with ctx.Err()). Each test runs under panic isolation — a
// panicking test yields an errored Result while the rest of the suite
// keeps running.
func (s Suite) Run(ctx context.Context, net *netmodel.Network, tracker core.Tracker) []Result {
	out := make([]Result, 0, len(s))
	for _, t := range s {
		if ctx.Err() != nil {
			return out
		}
		out = append(out, runIsolated(ctx, t, net, tracker))
	}
	return out
}

// runIsolated executes one test, converting a panic (a test bug, or a
// cancellation unwinding out of the BDD engine) into an errored Result
// so one bad test cannot take down the whole evaluation.
func runIsolated(ctx context.Context, t Test, net *netmodel.Network, tracker core.Tracker) (res Result) {
	name, kind := t.Name(), t.Kind()
	defer func() {
		if r := recover(); r != nil {
			res = Result{Name: name, Kind: kind, Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	if ct, ok := t.(ContextTest); ok {
		return ct.RunContext(ctx, net, tracker)
	}
	return t.Run(net, tracker)
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// roleRank orders roles bottom-up so tests can recognize "northbound".
func roleRank(r netmodel.Role) int {
	switch r {
	case netmodel.RoleToR, netmodel.RoleLeaf:
		return 0
	case netmodel.RoleAgg:
		return 1
	case netmodel.RoleSpine:
		return 2
	case netmodel.RoleHub, netmodel.RoleBorder, netmodel.RoleCore:
		return 3
	}
	return -1
}

// findFIBRule returns the device's FIB rule for an exact prefix.
func findFIBRule(net *netmodel.Network, dev netmodel.DeviceID, p netip.Prefix) *netmodel.Rule {
	r, ok := net.FIBRuleFor(dev, p)
	if !ok {
		return nil
	}
	return r
}

// nextHops resolves a forward action's out-interfaces to the neighbor
// devices they lead to, -1 for an external interface, sorted and without
// repeats, in buf's storage: the next-hop tests compare it against the
// devices they expect and print it in a failure.
func nextHops(net *netmodel.Network, act netmodel.Action, buf []netmodel.DeviceID) []netmodel.DeviceID {
	buf = buf[:0]
	for _, ifid := range act.OutIfaces {
		d := netmodel.DeviceID(-1)
		if peer := net.Iface(ifid).Peer; peer != netmodel.NoIface {
			d = net.Iface(peer).Device
		}
		buf = append(buf, d)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// sameDevices reports whether hops (sorted, without repeats) are exactly
// the devices of want.
func sameDevices(hops, want []netmodel.DeviceID) bool {
	if len(hops) != len(want) {
		return false
	}
	for _, d := range want {
		if _, ok := slices.BinarySearch(hops, d); !ok {
			return false
		}
	}
	return true
}

// shortestPaths answers the shortest-path contracts' topology questions
// over the adjacency it derives once, in buffers a test run reuses for
// every origin and device.
type shortestPaths struct {
	adj   [][]netmodel.DeviceID // Neighbors, by DeviceID
	dist  []int
	queue []netmodel.DeviceID
	want  []netmodel.DeviceID
}

func newShortestPaths(net *netmodel.Network) *shortestPaths {
	sp := &shortestPaths{adj: make([][]netmodel.DeviceID, len(net.Devices)), dist: make([]int, len(net.Devices))}
	for i := range sp.adj {
		sp.adj[i] = net.Neighbors(netmodel.DeviceID(i))
	}
	return sp
}

// from returns every device's hop distance to the nearest origin over the
// topology (ignoring forwarding state), -1 where none is reachable. The
// slice is overwritten by the next call.
func (sp *shortestPaths) from(origins ...netmodel.DeviceID) []int {
	for i := range sp.dist {
		sp.dist[i] = -1
	}
	q := sp.queue[:0]
	for _, o := range origins {
		if sp.dist[o] != 0 {
			sp.dist[o] = 0
			q = append(q, o)
		}
	}
	for i := 0; i < len(q); i++ {
		u := q[i]
		for _, v := range sp.adj[u] {
			if sp.dist[v] == -1 {
				sp.dist[v] = sp.dist[u] + 1
				q = append(q, v)
			}
		}
	}
	sp.queue = q
	return sp.dist
}

// closer returns d's neighbors one hop nearer the origins of the last
// from: the next hops of every shortest path, in adjacency order. The
// slice is overwritten by the next call.
func (sp *shortestPaths) closer(d netmodel.DeviceID) []netmodel.DeviceID {
	sp.want = sp.want[:0]
	for _, nb := range sp.adj[d] {
		if sp.dist[nb] == sp.dist[d]-1 {
			sp.want = append(sp.want, nb)
		}
	}
	return sp.want
}

// defaultRoutePrefix returns the family's default route (0.0.0.0/0 or
// ::/0).
func defaultRoutePrefix(net *netmodel.Network) netip.Prefix {
	if net.Family() == hdr.V6 {
		return netip.MustParsePrefix("::/0")
	}
	return netip.MustParsePrefix("0.0.0.0/0")
}

// ---------------------------------------------------------------------------
// DefaultRouteCheck (state inspection)
// ---------------------------------------------------------------------------

// DefaultRouteCheck verifies that every device expected to carry the
// default route has one whose next hops are exactly its northbound
// neighbors (or an external uplink). Devices at the top of the hierarchy
// without an uplink are excluded, mirroring the case-study exclusion of
// some regional hubs. This is the RCDC-derived state-inspection test of
// §7.2, and it reports coverage via MarkRule.
type DefaultRouteCheck struct {
	// Exclude skips devices the default route is not expected on. Nil
	// excludes devices with no northbound neighbor and no external
	// uplink.
	Exclude func(d *netmodel.Device) bool
}

// Name implements Test.
func (DefaultRouteCheck) Name() string { return "DefaultRouteCheck" }

// Kind implements Test.
func (DefaultRouteCheck) Kind() Kind { return StateInspection }

// Run implements Test.
func (t DefaultRouteCheck) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	var north, hops []netmodel.DeviceID
	for _, d := range net.Devices {
		if t.Exclude != nil && t.Exclude(d) {
			continue
		}
		// Expected next hops: all strictly-northern neighbors; an
		// external uplink (WAN edge) also qualifies.
		north = north[:0]
		hasUplink := false
		for _, ifid := range d.Ifaces {
			ifc := net.Iface(ifid)
			if ifc.Peer == netmodel.NoIface {
				if ifc.External && !ifc.Addr.IsValid() {
					hasUplink = true // WAN-facing edge (no host subnet)
				}
				continue
			}
			nb := net.Device(net.Iface(ifc.Peer).Device)
			if roleRank(nb.Role) > roleRank(d.Role) {
				north = append(north, nb.ID)
			}
		}
		if t.Exclude == nil && len(north) == 0 && !hasUplink {
			continue // top of the hierarchy; excluded
		}
		res.Checks++
		rule := findFIBRule(net, d.ID, defaultRoutePrefix(net))
		if rule == nil {
			res.failf(d.ID, "no default route")
			continue
		}
		// Inspecting the rule covers its full match set (§5.1).
		tracker.MarkRule(rule.ID)
		if rule.Action.Kind != netmodel.ActForward {
			res.failf(d.ID, "default route does not forward (null-routed?)")
			continue
		}
		hops = nextHops(net, rule.Action, hops)
		got := hops
		if len(got) > 0 && got[0] == -1 {
			if hasUplink && len(got) == 1 {
				continue // forwards out the uplink: correct for a WAN device
			}
			got = got[1:]
		}
		if !sameDevices(got, north) {
			res.failf(d.ID, "default next hops %v != northbound neighbors", got)
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// ConnectedRouteCheck (state inspection)
// ---------------------------------------------------------------------------

// ConnectedRouteCheck verifies that both ends of every point-to-point
// link carry the connected route for the link's /31 (§7.3).
type ConnectedRouteCheck struct{}

// Name implements Test.
func (ConnectedRouteCheck) Name() string { return "ConnectedRouteCheck" }

// Kind implements Test.
func (ConnectedRouteCheck) Kind() Kind { return StateInspection }

// Run implements Test.
func (t ConnectedRouteCheck) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	for _, ifc := range net.Ifaces {
		if ifc.Peer == netmodel.NoIface || !ifc.Addr.IsValid() {
			continue
		}
		res.Checks++
		p := ifc.Addr.Masked()
		rule := findFIBRule(net, ifc.Device, p)
		if rule == nil || rule.Origin != netmodel.OriginConnected {
			res.failf(ifc.Device, "missing connected route %v on %s", p, ifc.Name)
			continue
		}
		tracker.MarkRule(rule.ID)
	}
	return res
}

// ---------------------------------------------------------------------------
// Shortest-path contracts (local symbolic): InternalRouteCheck,
// ToRContract, AggCanReachTorLoopback
// ---------------------------------------------------------------------------

// contractCheck validates, for each (origin, prefix) pair, that every
// other eligible device forwards the prefix through exactly the full set
// of topological shortest paths toward the origin — the RCDC idea of
// decomposing an end-to-end invariant into local forwarding contracts
// (§7.3). It reports coverage with one markPacket per exercised device.
func contractCheck(net *netmodel.Network, tracker core.Tracker, res *Result,
	origins []netmodel.DeviceID, prefixes func(d *netmodel.Device) []netip.Prefix,
	eligible func(d *netmodel.Device) bool) {

	// Batch coverage marking: the prefix sets checked at each device,
	// folded into one markPacket per device at the end. An origin's
	// prefix sets are derived once, not once per device that checks them.
	marked := make([][]hdr.Set, len(net.Devices))
	paths := newShortestPaths(net)
	var hops []netmodel.DeviceID

	for _, origin := range origins {
		prefs := prefixes(net.Device(origin))
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
			if eligible != nil && !eligible(d) {
				continue
			}
			// Expected: ECMP across all neighbors one hop closer.
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

// InternalRouteCheck validates that all prefixes originating within the
// region — host subnets and loopbacks — are forwarded through and only
// through the full set of topological shortest paths (§7.3). Local
// symbolic.
type InternalRouteCheck struct{}

// Name implements Test.
func (InternalRouteCheck) Name() string { return "InternalRouteCheck" }

// Kind implements Test.
func (InternalRouteCheck) Kind() Kind { return LocalSymbolic }

// Run implements Test.
func (t InternalRouteCheck) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	origins := make([]netmodel.DeviceID, len(net.Devices))
	for i := range origins {
		origins[i] = netmodel.DeviceID(i)
	}
	contractCheck(net, tracker, &res, origins, func(d *netmodel.Device) []netip.Prefix {
		return append(append([]netip.Prefix(nil), d.Subnets...), d.Loopbacks...)
	}, nil)
	return res
}

// ToRContract is the §8 local-symbolic benchmark test: the ToRReachability
// invariant decomposed into per-device forwarding contracts for the hosted
// prefixes only (a subset of RCDC).
type ToRContract struct{}

// Name implements Test.
func (ToRContract) Name() string { return "ToRContract" }

// Kind implements Test.
func (ToRContract) Kind() Kind { return LocalSymbolic }

// Run implements Test.
func (t ToRContract) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	var origins []netmodel.DeviceID
	for _, d := range net.Devices {
		if len(d.Subnets) > 0 {
			origins = append(origins, d.ID)
		}
	}
	contractCheck(net, tracker, &res, origins, func(d *netmodel.Device) []netip.Prefix {
		return d.Subnets
	}, nil)
	return res
}

// AggCanReachTorLoopback checks that aggregation routers correctly
// forward packets for ToR loopback interfaces (§7.2). Local symbolic,
// restricted to aggregation devices.
type AggCanReachTorLoopback struct{}

// Name implements Test.
func (AggCanReachTorLoopback) Name() string { return "AggCanReachTorLoopback" }

// Kind implements Test.
func (AggCanReachTorLoopback) Kind() Kind { return LocalSymbolic }

// Run implements Test.
func (t AggCanReachTorLoopback) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	var tors []netmodel.DeviceID
	for _, d := range net.Devices {
		if d.Role == netmodel.RoleToR && len(d.Loopbacks) > 0 {
			tors = append(tors, d.ID)
		}
	}
	contractCheck(net, tracker, &res, tors, func(d *netmodel.Device) []netip.Prefix {
		return d.Loopbacks
	}, func(d *netmodel.Device) bool {
		return d.Role == netmodel.RoleAgg
	})
	return res
}

// ---------------------------------------------------------------------------
// ToRReachability (end-to-end symbolic)
// ---------------------------------------------------------------------------

// ToRReachability checks that all packets originating at a ToR with a
// destination address in another ToR's hosted prefix reach that ToR (§8).
// End-to-end symbolic: one symbolic flood per source ToR, per-hop packet
// sets reported via MarkPacket.
type ToRReachability struct{ sourcePart }

// Name implements Test.
func (ToRReachability) Name() string { return "ToRReachability" }

// Kind implements Test.
func (ToRReachability) Kind() Kind { return E2ESymbolic }

// Split implements Splitter.
func (ToRReachability) Split(n int) []Test {
	return split(n, func(p sourcePart) Test { return ToRReachability{p} })
}

// Run implements Test.
func (t ToRReachability) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	type hosted struct {
		dev   netmodel.DeviceID
		iface netmodel.IfaceID
		set   hdr.Set
	}
	var all []hosted
	for _, d := range net.Devices {
		for _, p := range d.Subnets {
			// The hosted edge interface carries the subnet address.
			for _, ifid := range d.Ifaces {
				ifc := net.Iface(ifid)
				if ifc.External && ifc.Addr == p {
					all = append(all, hosted{d.ID, ifid, net.Space.DstPrefix(p)})
				}
			}
		}
	}
	runs := t.sources(net)
	for _, src := range all {
		if !runs[src.dev] {
			continue
		}
		// Union of every other ToR's hosted prefix.
		dsts := net.Space.Empty()
		for _, h := range all {
			if h.dev != src.dev {
				dsts = dsts.Union(h.set)
			}
		}
		if dsts.IsEmpty() {
			continue
		}
		r, err := dataplane.Reach(net, dataplane.Injected(src.dev), dsts, dataplane.ReachOpts{
			OnHop: func(loc dataplane.Loc, pkts hdr.Set) { tracker.MarkPacket(loc, pkts) },
		})
		if err != nil {
			res.failf(src.dev, "symbolic flood failed: %v", err)
			continue
		}
		for _, h := range all {
			if h.dev == src.dev {
				continue
			}
			res.Checks++
			got, ok := r.Egressed[h.iface]
			if !ok || !got.Equal(h.set) {
				res.failf(src.dev, "packets for %s did not fully reach it", net.Device(h.dev).Name)
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// ToRPingmesh (end-to-end concrete)
// ---------------------------------------------------------------------------

// ToRPingmesh checks the ToRReachability invariant with one sampled
// concrete address per prefix instead of reasoning about all packets —
// the Pingmesh idea (§8). End-to-end concrete.
type ToRPingmesh struct{ sourcePart }

// Name implements Test.
func (ToRPingmesh) Name() string { return "ToRPingmesh" }

// Kind implements Test.
func (ToRPingmesh) Kind() Kind { return E2EConcrete }

// Split implements Splitter.
func (ToRPingmesh) Split(n int) []Test {
	return split(n, func(p sourcePart) Test { return ToRPingmesh{p} })
}

// Run implements Test.
func (t ToRPingmesh) Run(net *netmodel.Network, tracker core.Tracker) Result {
	return t.RunContext(context.Background(), net, tracker)
}

// RunContext implements ContextTest. The run's pings are marked in one
// MarkConcrete call at its end, so each location's set is built once
// from all the packets that reach it (per source, the sets would be
// built and unioned again for every source that crosses a location).
// Tracing charges no BDD work, nor does a ping whose hops the trace
// already covers, so the space's watched context may never be polled:
// the test checks ctx itself before each source's pings and, once it is
// done, marks the pings it sent and returns an errored Result.
func (t ToRPingmesh) RunContext(ctx context.Context, net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	type hosted struct {
		dev    netmodel.DeviceID
		prefix netip.Prefix
	}
	var all []hosted
	for _, d := range net.Devices {
		for _, p := range d.Subnets {
			all = append(all, hosted{d.ID, p})
		}
	}
	runs := t.sources(net)
	sent := 0 // an upper bound on the pings: a source pings every other subnet
	for _, src := range all {
		if runs[src.dev] {
			sent += len(all)
		}
	}
	pings := make([]core.Ping, 0, sent)
	for _, src := range all {
		if !runs[src.dev] {
			continue
		}
		if err := ctx.Err(); err != nil {
			res.Err = fmt.Sprintf("pingmesh aborted: %v", err)
			break
		}
		srcAddr := src.prefix.Addr().Next() // .1 of the hosted subnet
		for _, dst := range all {
			if dst.dev == src.dev {
				continue
			}
			res.Checks++
			pkt := hdr.Packet{
				Dst:     dst.prefix.Addr().Next(),
				Src:     srcAddr,
				Proto:   1, // ICMP echo
				DstPort: 0,
				SrcPort: 0,
			}
			tr := dataplane.Traceroute(net, dataplane.Injected(src.dev), pkt)
			pings = append(pings, core.Ping{Packet: pkt, Hops: tr.Hops})
			if tr.End != dataplane.TraceEgressed || len(tr.Hops) == 0 ||
				tr.Hops[len(tr.Hops)-1].Loc.Device != dst.dev {
				res.failf(src.dev, "ping to %s ended %v", net.Device(dst.dev).Name, tr.End)
			}
		}
	}
	tracker.MarkConcrete(net.Space, pings)
	return res
}

// ---------------------------------------------------------------------------
// Generic taxonomy tests
// ---------------------------------------------------------------------------

// PingTest is a generic end-to-end concrete test: one packet injected at
// From must terminate with End (e.g. egress somewhere specific).
type PingTest struct {
	TestName   string
	From       netmodel.DeviceID
	Packet     hdr.Packet
	WantEnd    dataplane.TraceEnd
	WantDevice netmodel.DeviceID // device at the final hop; -1 = any
}

// Name implements Test.
func (t PingTest) Name() string {
	if t.TestName != "" {
		return t.TestName
	}
	return "PingTest"
}

// Kind implements Test.
func (PingTest) Kind() Kind { return E2EConcrete }

// Run implements Test.
func (t PingTest) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind(), Checks: 1}
	tr := dataplane.Traceroute(net, dataplane.Injected(t.From), t.Packet)
	tracker.MarkConcrete(net.Space, []core.Ping{{Packet: t.Packet, Hops: tr.Hops}})
	if tr.End != t.WantEnd {
		res.failf(t.From, "trace ended %v, want %v", tr.End, t.WantEnd)
		return res
	}
	if t.WantDevice >= 0 {
		if len(tr.Hops) == 0 || tr.Hops[len(tr.Hops)-1].Loc.Device != t.WantDevice {
			res.failf(t.From, "trace did not end at %s", net.Device(t.WantDevice).Name)
		}
	}
	return res
}

// ReachabilityTest is a generic end-to-end symbolic test: all packets in
// Pkts injected at From must egress via exactly the WantEgress interfaces
// (each receiving the full set), and optionally traverse Waypoint.
type ReachabilityTest struct {
	TestName   string
	From       netmodel.DeviceID
	Pkts       hdr.Set
	WantEgress []netmodel.IfaceID
	Waypoint   netmodel.DeviceID // -1 = none
}

// Name implements Test.
func (t ReachabilityTest) Name() string {
	if t.TestName != "" {
		return t.TestName
	}
	return "ReachabilityTest"
}

// Kind implements Test.
func (ReachabilityTest) Kind() Kind { return E2ESymbolic }

// Run implements Test.
func (t ReachabilityTest) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind()}
	r, err := dataplane.Reach(net, dataplane.Injected(t.From), t.Pkts, dataplane.ReachOpts{
		OnHop: func(loc dataplane.Loc, pkts hdr.Set) { tracker.MarkPacket(loc, pkts) },
	})
	if err != nil {
		res.Checks++
		res.failf(t.From, "symbolic flood failed: %v", err)
		return res
	}
	for _, ifid := range t.WantEgress {
		res.Checks++
		got, ok := r.Egressed[ifid]
		if !ok || !got.Equal(t.Pkts) {
			res.failf(net.Iface(ifid).Device, "egress %s did not receive the full packet set", net.Iface(ifid).Name)
		}
	}
	if t.Waypoint >= 0 {
		res.Checks++
		if !r.AtDevice(net, t.Waypoint).Equal(t.Pkts) {
			res.failf(t.Waypoint, "waypoint %s not traversed by all packets", net.Device(t.Waypoint).Name)
		}
	}
	return res
}

// ACLDenyCheck is a local symbolic test: the device must drop all packets
// matching Match (e.g. "router R1 must drop all packets to port 23").
type ACLDenyCheck struct {
	TestName string
	Device   netmodel.DeviceID
	Match    hdr.Set
}

// Name implements Test.
func (t ACLDenyCheck) Name() string {
	if t.TestName != "" {
		return t.TestName
	}
	return "ACLDenyCheck"
}

// Kind implements Test.
func (ACLDenyCheck) Kind() Kind { return LocalSymbolic }

// Run implements Test.
func (t ACLDenyCheck) Run(net *netmodel.Network, tracker core.Tracker) Result {
	res := Result{Name: t.Name(), Kind: t.Kind(), Checks: 1}
	tracker.MarkPacket(dataplane.Injected(t.Device), t.Match)
	dr := dataplane.ApplyDevice(net, t.Device, t.Match)
	for _, hit := range dr.Hits {
		if len(hit.Out) > 0 {
			res.failf(t.Device, "packets escape via rule %d", hit.Rule.ID)
			return res
		}
	}
	return res
}

// BuiltinSuite resolves a comma-separated list of built-in test names —
// the vocabulary shared by the CLI tools and the HTTP service:
// default, connected, internal, agg, contract, reach, pingmesh, host.
// (WideAreaRouteCheck is not name-addressable: it needs a WAN route
// specification; callers add it explicitly.)
func BuiltinSuite(arg string) (Suite, error) {
	var suite Suite
	for _, name := range strings.Split(arg, ",") {
		switch strings.TrimSpace(name) {
		case "default":
			suite = append(suite, DefaultRouteCheck{})
		case "connected":
			suite = append(suite, ConnectedRouteCheck{})
		case "internal":
			suite = append(suite, InternalRouteCheck{})
		case "agg":
			suite = append(suite, AggCanReachTorLoopback{})
		case "contract":
			suite = append(suite, ToRContract{})
		case "reach":
			suite = append(suite, ToRReachability{})
		case "pingmesh":
			suite = append(suite, ToRPingmesh{})
		case "host":
			suite = append(suite, HostInterfaceCheck{})
		case "":
		default:
			return nil, fmt.Errorf("testkit: unknown test %q", name)
		}
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("testkit: empty test suite")
	}
	return suite, nil
}
