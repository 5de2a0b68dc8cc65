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
// computation happens off the testing path.
//
// The subsystems are exposed as type aliases so the whole system is usable
// through this one import: the BDD-backed packet-set algebra (Space, Set),
// the network model (Network, Device, Rule), the eBGP control-plane
// simulator and topology generators (BuildExample, BuildFatTree,
// BuildRegional), the dataplane semantics (Reach, Traceroute,
// EnumeratePaths), the test kit spanning the paper's taxonomy, and the
// coverage framework itself (GuardedString, Measure, Combinator, AggKind).
package yardstick

import (
	"context"
	"io"

	"yardstick/internal/bdd"

	"yardstick/internal/bgp"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/delta"
	"yardstick/internal/faults"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/pipeline"
	"yardstick/internal/probegen"
	"yardstick/internal/report"
	"yardstick/internal/sharded"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// Network model (§4.1).
type (
	// Network is a network N = (V, I, E, S): devices, interfaces, links,
	// and forwarding state.
	Network = netmodel.Network
	// Device is one router.
	Device = netmodel.Device
	// Interface is a device port.
	Interface = netmodel.Interface
	// Rule is one match-action rule.
	Rule = netmodel.Rule
	// Match holds a rule's match fields.
	Match = netmodel.Match
	// Action is what a rule does to matched packets.
	Action = netmodel.Action
	// Transform optionally rewrites header fields.
	Transform = netmodel.Transform
	// DeviceID identifies a device.
	DeviceID = netmodel.DeviceID
	// IfaceID identifies an interface.
	IfaceID = netmodel.IfaceID
	// RuleID identifies a rule.
	RuleID = netmodel.RuleID
	// Role classifies devices (ToR, aggregation, spine, …).
	Role = netmodel.Role
	// RouteOrigin classifies rules (default, connected, internal, …).
	RouteOrigin = netmodel.RouteOrigin
)

// NewNetwork returns an empty IPv4 network over a fresh header space.
func NewNetwork() *Network { return netmodel.New() }

// NewNetworkV6 returns an empty IPv6 network. The case-study network is
// dual-stack; model each family as its own network.
func NewNetworkV6() *Network { return netmodel.NewV6() }

// DecodeNetworkJSON reads a network from its JSON representation (see
// Network.EncodeJSON) and computes match sets.
func DecodeNetworkJSON(r io.Reader) (*Network, error) { return netmodel.DecodeJSON(r) }

// ParseNetworkText reads a network from the line-oriented text format
// (see Network.EncodeText) — the router-dump-style ingestion path.
func ParseNetworkText(r io.Reader) (*Network, error) { return netmodel.ParseText(r) }

// Device roles.
const (
	RoleToR    = netmodel.RoleToR
	RoleAgg    = netmodel.RoleAgg
	RoleSpine  = netmodel.RoleSpine
	RoleHub    = netmodel.RoleHub
	RoleBorder = netmodel.RoleBorder
	RoleLeaf   = netmodel.RoleLeaf
	RoleCore   = netmodel.RoleCore
)

// Route origins.
const (
	OriginDefault   = netmodel.OriginDefault
	OriginConnected = netmodel.OriginConnected
	OriginInternal  = netmodel.OriginInternal
	OriginWideArea  = netmodel.OriginWideArea
	OriginStatic    = netmodel.OriginStatic
	OriginACL       = netmodel.OriginACL
)

// Rule action kinds.
const (
	ActForward = netmodel.ActForward
	ActDrop    = netmodel.ActDrop
	ActDeliver = netmodel.ActDeliver
)

// NoIface marks packets injected directly at a device.
const NoIface = netmodel.NoIface

// MatchAll returns a match covering every packet.
func MatchAll() Match { return netmodel.MatchAll() }

// Packet sets (Figure 5).
type (
	// Space owns the BDD universe of one analysis.
	Space = hdr.Space
	// Set is a set of packet headers.
	Set = hdr.Set
	// Packet is one concrete header.
	Packet = hdr.Packet
	// EngineLimits bounds the symbolic engine (Space.SetLimits): node
	// table size and apply-loop work. The zero value is unlimited.
	EngineLimits = bdd.Limits
)

// ErrBudgetExceeded is wrapped by every error produced by a tripped
// EngineLimits budget; test with errors.Is.
var ErrBudgetExceeded = bdd.ErrBudgetExceeded

// GuardBudget runs fn, converting a tripped engine budget or a watched
// context's cancellation into the error it carries (see bdd.Guard).
func GuardBudget(fn func()) error { return bdd.Guard(fn) }

// NewSpace returns a fresh IPv4 header space.
func NewSpace() *Space { return hdr.NewSpace() }

// NewSpaceV6 returns a fresh IPv6 header space.
func NewSpaceV6() *Space { return hdr.NewSpaceV6() }

// Dataplane semantics.
type (
	// Loc is a located packet position.
	Loc = dataplane.Loc
	// Reachability is the result of a symbolic flood.
	Reachability = dataplane.Reachability
	// TraceHop is one hop of a concrete traceroute.
	TraceHop = dataplane.TraceHop
	// Path is one guarded string of the path universe.
	Path = dataplane.Path
	// EnumOpts bounds path enumeration.
	EnumOpts = dataplane.EnumOpts
	// ReachOpts configures a symbolic flood.
	ReachOpts = dataplane.ReachOpts
)

// Injected returns the location of packets injected at a device.
func Injected(dev DeviceID) Loc { return dataplane.Injected(dev) }

// Traceroute outcomes.
const (
	TraceDelivered = dataplane.TraceDelivered
	TraceEgressed  = dataplane.TraceEgressed
	TraceDropped   = dataplane.TraceDropped
	TraceDenied    = dataplane.TraceDenied
	TraceNoRoute   = dataplane.TraceNoRoute
	TraceLoop      = dataplane.TraceLoop
)

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

// DecodeTraceJSON loads a coverage trace recorded against the given
// network (see CoverageTrace.EncodeJSON), enabling coverage to
// accumulate across runs.
func DecodeTraceJSON(net *Network, r io.Reader) (*CoverageTrace, error) {
	return core.DecodeTraceJSON(net, r)
}

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
	DevicesByRole     = core.DevicesByRole
	FilterDevices     = core.FilterDevices
	IfacesOfDevices   = core.IfacesOfDevices
	RulesOfDevices    = core.RulesOfDevices
)

// Test kit (Figure 2 taxonomy).
type (
	// Test is one network test.
	Test = testkit.Test
	// Suite is an ordered collection of tests.
	Suite = testkit.Suite
	// TestResult is a test's assertion outcome.
	TestResult = testkit.Result
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
	// ToRContract verifies per-device contracts for hosted prefixes.
	ToRContract = testkit.ToRContract
	// ToRReachability verifies all-pairs ToR reachability symbolically.
	ToRReachability = testkit.ToRReachability
	// ToRPingmesh verifies ToR pairs with sampled concrete packets.
	ToRPingmesh = testkit.ToRPingmesh
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
	// RankedCandidate is one candidate test with its marginal coverage
	// gain.
	RankedCandidate = testkit.RankedCandidate
)

// BuiltinSuite resolves comma-separated built-in test names (default,
// connected, internal, agg, contract, reach, pingmesh, host).
func BuiltinSuite(names string) (Suite, error) { return testkit.BuiltinSuite(names) }

// Test development helpers (§7.2's "most productive test development").
var (
	// RankCandidates orders candidate tests by marginal coverage gain
	// over a baseline trace.
	RankCandidates = testkit.RankCandidates
	// GreedySuite builds a suite by repeatedly adding the
	// highest-marginal-gain candidate.
	GreedySuite = testkit.GreedySuite
)

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

// Incremental evaluation under churn: rule-level deltas applied to a
// live network and its accumulated trace, without a suite re-run.
type (
	// DeltaOp is one rule-level change (add/remove/modify).
	DeltaOp = delta.Op
	// DeltaOpKind identifies a delta operation.
	DeltaOpKind = delta.OpKind
	// DeltaDocument is an atomic batch of ops plus the fingerprint of
	// the network they were computed against (the PATCH /network wire
	// format).
	DeltaDocument = delta.Document
	// DeltaEngine owns one live network and the trace recorded against
	// it; Apply mutates both in place.
	DeltaEngine = delta.Engine
	// DeltaApplied reports one delta application: coverage decay from
	// dropped rule marks plus per-device coverage drift.
	DeltaApplied = delta.Applied
	// DeltaRuleSpec is the portable rule definition carried by add and
	// modify ops.
	DeltaRuleSpec = netmodel.RuleSpec
	// FlapEvent toggles one BGP origination.
	FlapEvent = bgp.FlapEvent
	// FlapReplay re-converges forwarding state after each toggle — the
	// churn workload generator.
	FlapReplay = bgp.Replay
)

// Delta operations.
const (
	DeltaAdd    = delta.OpAdd
	DeltaRemove = delta.OpRemove
	DeltaModify = delta.OpModify
)

// NewDeltaEngine wraps a frozen network and its trace for incremental
// evaluation, fingerprinting the network once.
func NewDeltaEngine(net *Network, trace *CoverageTrace) (*DeltaEngine, error) {
	return delta.NewEngine(net, trace)
}

// DiffNetworks computes the rule-level ops that turn old into next,
// expressed against old's rule universe.
func DiffNetworks(old, next *Network) ([]DeltaOp, error) { return delta.Diff(old, next) }

// GenFlaps returns a deterministic withdraw/re-announce schedule over a
// configuration's originations; the same seed always yields the same
// schedule.
func GenFlaps(seed int64, n, origins int) []FlapEvent { return bgp.GenFlaps(seed, n, origins) }

// NewFlapReplay starts a flap replay with every origination announced.
func NewFlapReplay(cfg BGPConfig) *FlapReplay { return bgp.NewReplay(cfg) }

// Probe generation (the complementary ATPG direction).
type (
	// Probe is one generated, verified end-to-end concrete test.
	Probe = probegen.Probe
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
	PipelineConfig = pipeline.Config
	// PipelineResult is a change-evaluation report.
	PipelineResult = pipeline.Result
	// PipelineVerdict summarizes a change evaluation.
	PipelineVerdict = pipeline.Verdict
)

// Pipeline verdicts.
const (
	VerdictSafe              = pipeline.Safe
	VerdictTestsFailed       = pipeline.TestsFailed
	VerdictTestsErrored      = pipeline.TestsErrored
	VerdictCoverageRegressed = pipeline.CoverageRegressed
	VerdictUniverseDrifted   = pipeline.UniverseDrifted
	VerdictIncomplete        = pipeline.Incomplete
)

// EvaluateChange runs the §7.1 pipeline: build before/after states, test
// the after state, and compare coverage and path-universe size. The
// context is honored between phases and inside symbolic work; on
// cancellation or a tripped resource budget (PipelineConfig.Limits) the
// partial result comes back with the error.
func EvaluateChange(ctx context.Context, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.Run(ctx, cfg)
}

// Parallel suite evaluation (internal/sharded): per-worker BDD spaces
// with an exact cross-space trace merge.
type (
	// ShardedConfig parameterizes a sharded engine (workers, per-shard
	// engine limits).
	ShardedConfig = sharded.Config
	// ShardedEngine is a reusable worker pool bound to one canonical
	// network.
	ShardedEngine = sharded.Engine
	// ShardedResult is the outcome of one parallel run: results in suite
	// order, the merged trace in the canonical space, per-shard stats.
	ShardedResult = sharded.Result
	// ShardStats describes one worker's share of a run.
	ShardStats = sharded.ShardStats
)

// NewShardedEngine builds a reusable pool of cfg.Workers network
// replicas for parallel suite evaluation against net.
func NewShardedEngine(ctx context.Context, net *Network, cfg ShardedConfig) (*ShardedEngine, error) {
	return sharded.New(ctx, net, cfg)
}

// RunSharded builds a one-shot sharded engine and evaluates suite
// across it. Workers=1 and Workers=N produce identical results and an
// identical merged trace.
func RunSharded(ctx context.Context, net *Network, cfg ShardedConfig, suite Suite) (*ShardedResult, error) {
	return sharded.Run(ctx, net, cfg, suite)
}

// Reporting.
type (
	// Metrics is one row of a coverage report (the Figure 6 headline
	// metrics).
	Metrics = report.Metrics
	// GapRow is one category of untested rules.
	GapRow = report.GapRow
	// RuleDetail is one partially-tested rule with its uncovered
	// destination prefixes.
	RuleDetail = report.RuleDetail
	// Snapshot is a point-in-time coverage record for regression
	// detection.
	Snapshot = report.Snapshot
	// Regression is one device whose coverage dropped between
	// snapshots.
	Regression = report.Regression
	// ConfigRow is one device's config-line coverage (lines of
	// rendered configuration attested by the trace).
	ConfigRow = report.ConfigRow
)

// Report helpers.
var (
	ReportByRole          = report.ByRole
	ReportForDevices      = report.ForDevices
	ReportTotal           = report.Total
	RenderTable           = report.RenderTable
	ReportGaps            = report.Gaps
	RenderGaps            = report.RenderGaps
	Improvement           = report.Improvement
	UncoveredDetail       = report.UncoveredDetail
	RenderUncoveredDetail = report.RenderUncoveredDetail
	TakeSnapshot          = report.TakeSnapshot
	CompareSnapshots      = report.CompareSnapshots
	RenderRegressions     = report.RenderRegressions
	PathUniverseDrift     = report.PathUniverseDrift
	BuildHTMLReport       = report.BuildHTMLReport
	ConfigCoverage        = report.ConfigCoverage
	ConfigTotal           = report.ConfigTotal
	RenderConfig          = report.RenderConfig
)

// HTMLReport is a renderable self-contained coverage page.
type HTMLReport = report.HTMLReport

// Fault injection (mutation testing of test suites).
type (
	// Fault is one injected forwarding bug, revertible via Revert.
	Fault = faults.Fault
	// FaultKind selects a fault operator.
	FaultKind = faults.Kind
	// FaultCampaign reports a mutation campaign.
	FaultCampaign = faults.CampaignResult
)

// Fault operators.
const (
	FaultNullRoute    = faults.NullRoute
	FaultWrongNextHop = faults.WrongNextHop
	FaultECMPMember   = faults.ECMPMember
)

// Fault helpers.
var (
	InjectFault       = faults.Inject
	InjectRandomFault = faults.InjectRandom
	RunFaultCampaign  = faults.Run
)
