// Package yardstick computes test coverage metrics for stateless network
// data planes, reproducing "Test Coverage Metrics for the Network"
// (SIGCOMM 2021).
//
// The library decomposes both network components and tests into atomic
// testable units — (rule, packet) pairs — which lets it compute a range of
// coverage metrics (rule, device, interface, path, flow) from any mix of
// test types (state inspection, local or end-to-end, concrete or
// symbolic) without double counting.
//
// # Workflow
//
// Build or load a network, run tests that report coverage through a
// Tracker, then compute metrics from the resulting trace:
//
//	net, _ := yardstick.BuildRegional(yardstick.RegionalOpts{})
//	trace := yardstick.NewTrace()
//	suite := yardstick.Suite{
//		yardstick.DefaultRouteCheck{},
//		yardstick.InternalRouteCheck{},
//	}
//	results := suite.Run(ctx, net.Net, trace)
//	cov := yardstick.NewCoverage(net.Net, trace)
//	fmt.Printf("rule coverage: %.1f%%\n",
//		100*yardstick.RuleCoverage(cov, nil, yardstick.Fractional))
//
// Testing tools integrate by calling the two tracking APIs of the paper's
// §5.1 — Tracker.MarkPacket for behavioral tests (the located packets at
// each hop) and Tracker.MarkRule for state-inspection tests — and coverage
// computation happens off the testing path. A concrete test reports its
// run's pings, each a packet and its traceroute's hops, in one
// Tracker.MarkConcrete call, which marks every packet at every hop,
// skips the symbolic work for a hop that already holds its packet, and
// builds each location's set once from the packets that miss there.
//
// This package is the library API for that workflow and nothing else:
// building or loading a network (NewNetwork, RunBGP, BuildExample,
// BuildFatTree, BuildRegional, DecodeNetworkJSON), running tests (Suite,
// BuiltinSuite, the generic and case-study tests), computing coverage
// (NewCoverage, the metric functions, Spec and its measures and
// combinators) and reporting it (ReportByRole, ReportGaps, RenderTable,
// …). Every name is a re-export of an internal package and has a caller
// under cmd/ or examples/ or a runnable Example; TestFacadeNamesHaveCallers
// fails on one that does not. The daemon, its client, the coordinator, the
// evaluation engine and the metrics registry are not part of it: the
// commands under cmd/ import those internal packages directly.
package yardstick

import (
	"context"
	"io"

	"yardstick/internal/bgp"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/engine"
	"yardstick/internal/faults"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/probegen"
	"yardstick/internal/report"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// Network model (§4.1).
type (
	// Network is a network N = (V, I, E, S): devices, interfaces, links,
	// and forwarding state.
	Network = netmodel.Network
	// Match holds a rule's match fields.
	Match = netmodel.Match
	// Action is what a rule does to matched packets.
	Action = netmodel.Action
	// DeviceID identifies a device.
	DeviceID = netmodel.DeviceID
	// IfaceID identifies an interface.
	IfaceID = netmodel.IfaceID
	// RuleID identifies a rule.
	RuleID = netmodel.RuleID
	// Role classifies devices (ToR, aggregation, spine, …).
	Role = netmodel.Role
)

// NewNetwork returns an empty IPv4 network over a fresh header space.
func NewNetwork() *Network { return netmodel.New() }

// DecodeNetworkJSON reads a network from its JSON representation (see
// Network.EncodeJSON) and computes match sets.
func DecodeNetworkJSON(r io.Reader) (*Network, error) { return netmodel.DecodeJSON(r) }

// Device roles.
const (
	RoleToR    = netmodel.RoleToR
	RoleAgg    = netmodel.RoleAgg
	RoleSpine  = netmodel.RoleSpine
	RoleHub    = netmodel.RoleHub
	RoleBorder = netmodel.RoleBorder
	RoleLeaf   = netmodel.RoleLeaf
)

// Route origins.
const (
	OriginDefault  = netmodel.OriginDefault
	OriginInternal = netmodel.OriginInternal
)

// ActForward is the action kind of a rule that forwards out interfaces.
const ActForward = netmodel.ActForward

// MatchAll returns a match covering every packet.
func MatchAll() Match { return netmodel.MatchAll() }

// Packet sets (Figure 5).
type (
	// Set is a set of packet headers.
	Set = hdr.Set
	// Packet is one concrete header.
	Packet = hdr.Packet
)

// Dataplane semantics.
type (
	// Loc is a located packet position.
	Loc = dataplane.Loc
	// Reachability is the result of a symbolic flood.
	Reachability = dataplane.Reachability
	// Path is one guarded string of the path universe.
	Path = dataplane.Path
	// EnumOpts bounds path enumeration.
	EnumOpts = dataplane.EnumOpts
	// ReachOpts configures a symbolic flood.
	ReachOpts = dataplane.ReachOpts
)

// Injected returns the location of packets injected at a device.
func Injected(dev DeviceID) Loc { return dataplane.Injected(dev) }

// TraceEgressed is the traceroute outcome of a packet that left the
// network through an edge interface.
const TraceEgressed = dataplane.TraceEgressed

// Reach symbolically floods a packet set through the network.
func Reach(net *Network, start Loc, pkts Set, opts ReachOpts) (*Reachability, error) {
	return dataplane.Reach(net, start, pkts, opts)
}

// Traceroute follows one concrete packet through the network.
func Traceroute(net *Network, start Loc, pkt Packet) dataplane.Trace {
	return dataplane.Traceroute(net, start, pkt)
}

// EnumeratePaths streams the path universe (§5.2 Step 3). Cancelling
// ctx stops the walk; the second result is then false (incomplete).
func EnumeratePaths(ctx context.Context, net *Network, starts []dataplane.Start, opts EnumOpts, visit func(Path) bool) (int, bool) {
	return dataplane.EnumeratePaths(ctx, net, starts, opts, visit)
}

// EdgeStarts returns the canonical path-enumeration injection points.
func EdgeStarts(net *Network) []dataplane.Start { return dataplane.EdgeStarts(net) }

// Coverage framework (§4, §5).
type (
	// Tracker is the coverage-reporting interface tests call (§5.1).
	Tracker = core.Tracker
	// CoverageTrace is the coverage trace (P_T, R_T).
	CoverageTrace = core.Trace
	// NopTracker discards coverage reports (baseline benchmarking).
	NopTracker = core.Nop
	// Coverage computes metrics from a network and a trace.
	Coverage = core.Coverage
	// GuardedString is a guard packet set followed by a rule path.
	GuardedString = core.GuardedString
	// Spec is a component coverage specification (G, µ, κ).
	Spec = core.Spec
	// Measure is µ: the coverage of one guarded string.
	Measure = core.Measure
	// Combinator is κ: folds guarded-string measures into a component
	// coverage.
	Combinator = core.Combinator
	// AggKind selects aggregation across components (α).
	AggKind = core.AggKind
	// PathCoverageResult reports an aggregate over the path universe.
	PathCoverageResult = core.PathCoverageResult
)

// NewTrace returns an empty coverage trace.
func NewTrace() *CoverageTrace { return core.NewTrace() }

// NewCoverage prepares metric computation over a frozen network and a
// trace.
func NewCoverage(net *Network, trace *CoverageTrace) *Coverage {
	return core.NewCoverage(net, trace)
}

// Aggregators (§4.3.3).
const (
	Simple     = core.Simple
	Weighted   = core.Weighted
	Fractional = core.Fractional
)

// RuleCoverage aggregates rule coverage (nil = all rules).
func RuleCoverage(c *Coverage, rules []RuleID, kind AggKind) float64 {
	return core.RuleCoverage(c, rules, kind)
}

// DeviceCoverage aggregates device coverage (nil = all devices).
func DeviceCoverage(c *Coverage, devs []DeviceID, kind AggKind) float64 {
	return core.DeviceCoverage(c, devs, kind)
}

// InterfaceCoverage aggregates outgoing-interface coverage (nil = all).
func InterfaceCoverage(c *Coverage, ifaces []IfaceID, kind AggKind) float64 {
	return core.InterfaceCoverage(c, ifaces, kind)
}

// InIfaceCoverage aggregates incoming-interface coverage (nil = all).
func InIfaceCoverage(c *Coverage, ifaces []IfaceID, kind AggKind) float64 {
	return core.InIfaceCoverage(c, ifaces, kind)
}

// PathCoverage aggregates coverage over the path universe, streaming.
func PathCoverage(ctx context.Context, c *Coverage, starts []dataplane.Start, opts EnumOpts, kind AggKind) PathCoverageResult {
	return core.PathCoverage(ctx, c, starts, opts, kind)
}

// FlowCoverage computes one flow's end-to-end coverage.
func FlowCoverage(c *Coverage, start Loc, flow Set) float64 {
	return core.FlowCoverage(c, start, flow)
}

// Flow identifies one flow of a CoFlow.
type Flow = core.Flow

// CoFlowCoverage computes coverage of a set of flows generated by one
// application (§4.3.2).
func CoFlowCoverage(c *Coverage, flows []Flow) float64 {
	return core.CoFlowCoverage(c, flows)
}

// ComponentCoverage evaluates a custom specification (Equation 1).
func ComponentCoverage(c *Coverage, s Spec) float64 { return core.ComponentCoverage(c, s) }

// Component spec builders (§4.3.2).
var (
	RuleSpec     = core.RuleSpec
	DeviceSpec   = core.DeviceSpec
	OutIfaceSpec = core.OutIfaceSpec
	InIfaceSpec  = core.InIfaceSpec
	FlowSpec     = core.FlowSpec
)

// Measures and combinators for custom specs.
var (
	FractionMeasure     = core.FractionMeasure
	PathMeasure         = core.PathMeasure
	CombineOnly         = core.CombineOnly
	CombineMean         = core.CombineMean
	CombineWeightedMean = core.CombineWeightedMean
	CombineMin          = core.CombineMin
	CombineMax          = core.CombineMax
)

// Drill-downs (§7.2).
var (
	UncoveredRules    = core.UncoveredRules
	UncoveredByOrigin = core.UncoveredByOrigin
	RulesOfDevices    = core.RulesOfDevices
)

// Test kit (Figure 2 taxonomy).
type (
	// Test is one network test.
	Test = testkit.Test
	// Suite is an ordered collection of tests.
	Suite = testkit.Suite
	// DefaultRouteCheck verifies default routes point north.
	DefaultRouteCheck = testkit.DefaultRouteCheck
	// ConnectedRouteCheck verifies /31 connected routes on link ends.
	ConnectedRouteCheck = testkit.ConnectedRouteCheck
	// InternalRouteCheck verifies shortest-path contracts for internal
	// prefixes.
	InternalRouteCheck = testkit.InternalRouteCheck
	// AggCanReachTorLoopback verifies aggregation routers forward ToR
	// loopbacks.
	AggCanReachTorLoopback = testkit.AggCanReachTorLoopback
	// PingTest is a generic end-to-end concrete test.
	PingTest = testkit.PingTest
	// ReachabilityTest is a generic end-to-end symbolic test.
	ReachabilityTest = testkit.ReachabilityTest
	// ACLDenyCheck is a generic local symbolic drop test.
	ACLDenyCheck = testkit.ACLDenyCheck
	// WideAreaRouteCheck verifies wide-area routes against a WAN prefix
	// specification (the §7.3 future-work test).
	WideAreaRouteCheck = testkit.WideAreaRouteCheck
	// HostInterfaceCheck verifies host subnets exit their host-facing
	// interfaces (the other §7.3 future-work test).
	HostInterfaceCheck = testkit.HostInterfaceCheck
)

// BuiltinSuite resolves comma-separated built-in test names (default,
// connected, internal, agg, contract, reach, pingmesh, host).
func BuiltinSuite(names string) (Suite, error) { return testkit.BuiltinSuite(names) }

// RankCandidates orders candidate tests by marginal coverage gain over a
// baseline trace (§7.2's "most productive test development").
var RankCandidates = testkit.RankCandidates

// Topology generation and control plane.
type (
	// ExampleOpts configures the Figure 1 network.
	ExampleOpts = topogen.ExampleOpts
	// ExampleNet is the built Figure 1 network.
	ExampleNet = topogen.Example
	// FatTreeNet is a built k-ary fat-tree.
	FatTreeNet = topogen.FatTree
	// RegionalOpts sizes the case-study network.
	RegionalOpts = topogen.RegionalOpts
	// RegionalNet is the built case-study network.
	RegionalNet = topogen.Regional
	// BGPConfig drives a control-plane simulation on a hand-built
	// topology.
	BGPConfig = bgp.Config
	// StaticRoute is a per-device static route.
	StaticRoute = bgp.StaticRoute
	// Origination injects a prefix into BGP at a device.
	Origination = bgp.Origination
	// BGPResult reports the converged RIBs.
	BGPResult = bgp.Result
)

// BuildExample constructs the paper's §2 example network.
func BuildExample(opts ExampleOpts) (*ExampleNet, error) { return topogen.BuildExample(opts) }

// BuildFatTree constructs a k-ary fat-tree (§8).
func BuildFatTree(k int) (*FatTreeNet, error) { return topogen.BuildFatTree(k) }

// BuildRegional constructs the §7.1 case-study network.
func BuildRegional(opts RegionalOpts) (*RegionalNet, error) { return topogen.BuildRegional(opts) }

// RunBGP simulates the control plane on a hand-built topology and
// installs the resulting FIBs.
func RunBGP(cfg BGPConfig) (*BGPResult, error) { return bgp.Run(cfg) }

// Probe generation (the complementary ATPG direction).
type (
	// ProbeGenOptions bounds probe generation.
	ProbeGenOptions = probegen.Options
	// ProbeGenResult is a generation run's outcome.
	ProbeGenResult = probegen.Result
)

// GenerateProbes computes concrete probes covering the rules the trace
// has not touched; ProbeGenResult.AsTests turns them into a runnable
// suite. Cancelling ctx stops exploration with a partial result.
func GenerateProbes(ctx context.Context, c *Coverage, opts ProbeGenOptions) *ProbeGenResult {
	return probegen.Generate(ctx, c, opts)
}

// Change evaluation (§7.1's testing pipeline).
type (
	// PipelineConfig drives one change evaluation.
	PipelineConfig = engine.ChangeConfig
	// PipelineResult is a change-evaluation report.
	PipelineResult = engine.ChangeResult
)

// VerdictSafe is the verdict of a change whose tests all pass, with no
// coverage regression and a stable path universe.
const VerdictSafe = engine.VerdictSafe

// EvaluateChange runs the §7.1 pipeline: build before/after states, test
// the after state, and compare coverage and path-universe size. The
// context is honored between phases and inside symbolic work; on
// cancellation the partial result comes back with the error.
func EvaluateChange(ctx context.Context, cfg PipelineConfig) (*PipelineResult, error) {
	return engine.EvaluateChange(ctx, cfg)
}

// Metrics is one row of a coverage report (the Figure 6 headline
// metrics).
type Metrics = report.Metrics

// Report helpers.
var (
	ReportByRole          = report.ByRole
	ReportTotal           = report.Total
	RenderTable           = report.RenderTable
	ReportGaps            = report.Gaps
	RenderGaps            = report.RenderGaps
	Improvement           = report.Improvement
	UncoveredDetail       = report.UncoveredDetail
	RenderUncoveredDetail = report.RenderUncoveredDetail
	RenderRegressions     = report.RenderRegressions
	BuildHTMLReport       = report.BuildHTMLReport
)

// RunFaultCampaign injects n random forwarding bugs one at a time, runs
// every detector against each and reverts it (mutation testing of test
// suites).
var RunFaultCampaign = faults.Run
