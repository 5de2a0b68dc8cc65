package core

import (
	"context"

	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// GuardedString is the dependency unit of §4.3.1: a packet-set guard P
// followed by a rule path r1…rj (a valid forwarding sequence). Single-rule
// components use one-rule "paths".
type GuardedString struct {
	// Guard is P. An invalid (zero) Guard means "the match set of the
	// first rule", the common case for single-rule dependencies.
	Guard hdr.Set
	Rules []netmodel.RuleID
	// At optionally restricts which trace packets count as covering the
	// rules — incoming-interface specs limit guards to packets on the
	// interface (§4.3.2). Nil means any location at the rule's device.
	At *dataplane.Loc
}

// guard resolves the effective guard set.
func (g GuardedString) guard(c *Coverage) hdr.Set {
	if g.Guard.Space() != nil {
		return g.Guard
	}
	return c.Net.Rule(g.Rules[0]).MatchSet()
}

// Measure is µ of §4.3.1: the extent, in [0,1], to which the test suite
// (via the Coverage's trace) covers one guarded string.
type Measure func(c *Coverage, g GuardedString) float64

// Combinator is κ of §4.3.1: it folds the per-guarded-string measures of
// one component into the component's coverage. The weights slice is
// parallel to vals (nil when the spec carries no weights).
type Combinator func(vals, weights []float64) float64

// Spec is a coverage specification (G, µ, κ) for one network component
// (Equation 1).
type Spec struct {
	Name    string
	G       []GuardedString
	Weights []float64 // optional, parallel to G; used by weighted combinators
	Measure Measure
	Combine Combinator
}

// ComponentCoverage evaluates Equation 1: κ(map (µ[T]) G). A spec with an
// empty dependency set has coverage 0 by convention.
func ComponentCoverage(c *Coverage, s Spec) float64 {
	if len(s.G) == 0 {
		return 0
	}
	vals := make([]float64, len(s.G))
	for i, g := range s.G {
		vals[i] = clamp01(s.Measure(c, g))
	}
	return clamp01(s.Combine(vals, s.Weights))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ---------------------------------------------------------------------------
// Measures
// ---------------------------------------------------------------------------

// FractionMeasure is the single-rule measure |T[r] ∩ P| / |P|: the share
// of the guard exercised on the rule. With P = M[r] this is the rule
// coverage ratio |T[r]|/|M[r]| of §4.3.2.
func FractionMeasure(c *Coverage, g GuardedString) float64 {
	if len(g.Rules) != 1 {
		panic("core: FractionMeasure requires a single-rule guarded string")
	}
	r := g.Rules[0]
	var covered hdr.Set
	if g.At != nil {
		covered = c.CoveredAt(r, *g.At)
	} else {
		covered = c.Covered(r)
	}
	return covered.FractionOf(g.guard(c))
}

// PathMeasure implements Equation 3: it pushes two packet-set sequences
// through the path's rules from P_0 = P'_0 = Guard ∩ M[r1] — one
// constrained by the covered sets (P_i = F[r_i][P_{i-1} ∩ T[r_i]]) and an
// unconstrained reference (P'_i, with M[r_i] in place of T[r_i]) whose
// final value is the path's guard. For transform-free paths the coverage
// is the final ratio |P_k|/|P'_k|; when a rule transforms headers
// (one-to-many or many-to-one), sizes are no longer preserved and the
// footnote-2 generalization applies: the minimum per-hop ratio.
func PathMeasure(c *Coverage, g GuardedString) float64 {
	if len(g.Rules) == 0 {
		return 0
	}
	first := c.Net.Rule(g.Rules[0])
	ref := first.MatchSet()
	if g.Guard.Space() != nil {
		ref = ref.Intersect(g.Guard)
	}
	cur := ref
	minRatio := 1.0
	ratio := 0.0
	transforms := false
	for _, rid := range g.Rules {
		rule := c.Net.Rule(rid)
		if rule.Action.Transform != nil {
			transforms = true
		}
		var covered hdr.Set
		if g.At != nil {
			covered = c.CoveredAt(rid, *g.At)
		} else {
			covered = c.Covered(rid)
		}
		cur = cur.Intersect(covered)
		ref = ref.Intersect(rule.MatchSet())
		if ref.IsEmpty() {
			// The guard never makes it through this rule: the string
			// describes no packets, so there is nothing to cover.
			return 0
		}
		ratio = cur.FractionOf(ref)
		if ratio < minRatio {
			minRatio = ratio
		}
		// Apply the rule's action to both sequences.
		if rule.Action.Kind == netmodel.ActForward {
			cur = rule.Action.Transform.Apply(cur)
			ref = rule.Action.Transform.Apply(ref)
		}
	}
	if transforms {
		return minRatio
	}
	return ratio
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

// CombineOnly expects a singleton and returns its element (rule and path
// specs).
func CombineOnly(vals, _ []float64) float64 {
	if len(vals) != 1 {
		panic("core: CombineOnly on non-singleton")
	}
	return vals[0]
}

// CombineMean is the unweighted mean.
func CombineMean(vals, _ []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// CombineWeightedMean weighs each measure; with nil weights it degrades
// to the unweighted mean, and with all-zero weights it returns 0.
func CombineWeightedMean(vals, weights []float64) float64 {
	if weights == nil {
		return CombineMean(vals, nil)
	}
	var num, den float64
	for i, v := range vals {
		num += v * weights[i]
		den += weights[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// CombineMin returns the minimum measure.
func CombineMin(vals, _ []float64) float64 {
	min := vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// CombineMax returns the maximum measure.
func CombineMax(vals, _ []float64) float64 {
	max := vals[0]
	for _, v := range vals[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// ---------------------------------------------------------------------------
// Component spec builders (§4.3.2)
// ---------------------------------------------------------------------------

// RuleSpec builds the rule-coverage spec: G = {M[r] ▷ r}, µ the match-set
// fraction, κ the only element.
func RuleSpec(net *netmodel.Network, r netmodel.RuleID) Spec {
	return Spec{
		Name:    "rule:" + net.Device(net.Rule(r).Device).Name,
		G:       []GuardedString{{Rules: []netmodel.RuleID{r}}},
		Measure: FractionMeasure,
		Combine: CombineOnly,
	}
}

// DeviceSpec builds the device-coverage spec: one guarded string per rule,
// combined by a weighted average with weights proportional to match-set
// sizes, so the result is the fraction of total packets against which the
// device as a whole has been tested.
func DeviceSpec(net *netmodel.Network, dev netmodel.DeviceID) Spec {
	rules := net.DeviceRules(dev)
	s := Spec{
		Name:    "device:" + net.Device(dev).Name,
		Measure: FractionMeasure,
		Combine: CombineWeightedMean,
	}
	for _, rid := range rules {
		s.G = append(s.G, GuardedString{Rules: []netmodel.RuleID{rid}})
		s.Weights = append(s.Weights, net.Rule(rid).MatchSet().Fraction())
	}
	return s
}

// OutIfaceSpec builds the outgoing-interface spec: the rules that forward
// packets out the interface, plus the connected route owning the
// interface's own /31 (the state responsible for packets leaving via it).
func OutIfaceSpec(net *netmodel.Network, ifid netmodel.IfaceID) Spec {
	ifc := net.Iface(ifid)
	s := Spec{
		Name:    "iface:" + net.Device(ifc.Device).Name + "/" + ifc.Name,
		Measure: FractionMeasure,
		Combine: CombineWeightedMean,
	}
	deps := net.RulesForwardingTo(ifid)
	if ifc.Addr.IsValid() {
		for _, rid := range net.Device(ifc.Device).FIB {
			r := net.Rule(rid)
			if r.Origin == netmodel.OriginConnected && r.Match.DstPrefix == ifc.Addr.Masked() {
				deps = append(deps, rid)
			}
		}
	}
	for _, rid := range deps {
		s.G = append(s.G, GuardedString{Rules: []netmodel.RuleID{rid}})
		s.Weights = append(s.Weights, net.Rule(rid).MatchSet().Fraction())
	}
	return s
}

// InIfaceSpec builds the incoming-interface spec: every rule of the
// device, with guards limited to the packets the trace saw arriving on
// the interface.
func InIfaceSpec(net *netmodel.Network, ifid netmodel.IfaceID) Spec {
	ifc := net.Iface(ifid)
	loc := dataplane.Loc{Device: ifc.Device, Iface: ifid}
	s := Spec{
		Name:    "in-iface:" + net.Device(ifc.Device).Name + "/" + ifc.Name,
		Measure: FractionMeasure,
		Combine: CombineWeightedMean,
	}
	for _, rid := range net.DeviceRules(ifc.Device) {
		l := loc
		s.G = append(s.G, GuardedString{Rules: []netmodel.RuleID{rid}, At: &l})
		s.Weights = append(s.Weights, net.Rule(rid).MatchSet().Fraction())
	}
	return s
}

// FlowSpec builds the flow-coverage spec (§4.3.2): the flow — a start
// location and header space — is decomposed into its paths by processing
// the forwarding state; each path becomes a guarded string weighted by
// the fraction of the flow's packets that use it, measured end-to-end by
// Equation 3 and combined by weighted average.
func FlowSpec(net *netmodel.Network, start dataplane.Loc, flow hdr.Set) Spec {
	s := Spec{
		Name:    "flow:" + net.Device(start.Device).Name,
		Measure: PathMeasure,
		Combine: CombineWeightedMean,
	}
	dataplane.EnumeratePaths(context.Background(), net,
		[]dataplane.Start{{Loc: start, Pkts: flow}},
		dataplane.EnumOpts{},
		func(p dataplane.Path) bool {
			s.G = append(s.G, GuardedString{Guard: flow, Rules: p.Rules})
			s.Weights = append(s.Weights, p.Guard.Fraction())
			return true
		})
	return s
}

// Flow identifies one flow: an injection point and its header space.
type Flow struct {
	Start dataplane.Loc
	Pkts  hdr.Set
}

// CoFlowSpec builds the coverage spec of a CoFlow — the set of flows
// generated by one distributed application (§4.3.2). Each member flow is
// decomposed into its paths; guarded strings are weighted by the packet
// space each path carries, so the CoFlow's coverage is the fraction of
// the application's traffic that has been tested end-to-end.
func CoFlowSpec(net *netmodel.Network, flows []Flow) Spec {
	s := Spec{
		Name:    "coflow",
		Measure: PathMeasure,
		Combine: CombineWeightedMean,
	}
	for _, f := range flows {
		flow := f
		dataplane.EnumeratePaths(context.Background(), net,
			[]dataplane.Start{{Loc: flow.Start, Pkts: flow.Pkts}},
			dataplane.EnumOpts{},
			func(p dataplane.Path) bool {
				s.G = append(s.G, GuardedString{Guard: flow.Pkts, Rules: p.Rules})
				s.Weights = append(s.Weights, p.Guard.Fraction())
				return true
			})
	}
	return s
}

// CoFlowCoverage computes the coverage of a CoFlow.
func CoFlowCoverage(c *Coverage, flows []Flow) float64 {
	return ComponentCoverage(c, CoFlowSpec(c.Net, flows))
}

// ---------------------------------------------------------------------------
// Aggregation across components (§4.3.3)
// ---------------------------------------------------------------------------

// AggKind selects how component coverages are summarized (Equation 2).
type AggKind uint8

// Aggregators.
const (
	// Simple is the unweighted mean across components.
	Simple AggKind = iota
	// Weighted weighs each component by the packet space it handles.
	Weighted
	// Fractional reports the fraction of components with non-zero
	// coverage.
	Fractional
)

func (k AggKind) String() string {
	switch k {
	case Simple:
		return "simple"
	case Weighted:
		return "weighted"
	case Fractional:
		return "fractional"
	}
	return "unknown"
}

// Accum accumulates component coverages online, so collections (e.g. the
// path universe) never need to be materialized.
type Accum struct {
	kind      AggKind
	n         int
	sum       float64 // Simple: Σv; Weighted: Σv·w; Fractional: count(v>0)
	weightSum float64
}

// NewAccum returns an empty accumulator of the given kind.
func NewAccum(kind AggKind) *Accum { return &Accum{kind: kind} }

// Add folds in one component's coverage with its weight (ignored except
// for Weighted).
func (a *Accum) Add(v, w float64) {
	a.n++
	switch a.kind {
	case Simple:
		a.sum += v
	case Weighted:
		a.sum += v * w
		a.weightSum += w
	case Fractional:
		if v > 0 {
			a.sum++
		}
	}
}

// Value returns the aggregate; 0 for an empty accumulator.
func (a *Accum) Value() float64 {
	if a.n == 0 {
		return 0
	}
	switch a.kind {
	case Weighted:
		if a.weightSum == 0 {
			return 0
		}
		return clamp01(a.sum / a.weightSum)
	default:
		return clamp01(a.sum / float64(a.n))
	}
}

// AggregateSpecs evaluates Equation 2 for a collection of component specs:
// each component's weight is the total packet-space fraction it handles.
func AggregateSpecs(c *Coverage, specs []Spec, kind AggKind) float64 {
	acc := NewAccum(kind)
	for _, s := range specs {
		w := 0.0
		for _, wi := range s.Weights {
			w += wi
		}
		if s.Weights == nil {
			w = 1
		}
		acc.Add(ComponentCoverage(c, s), w)
	}
	return acc.Value()
}
