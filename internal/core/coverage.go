package core

import (
	"net/netip"
	"slices"

	"yardstick/internal/bdd"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// Coverage is the post-processing phase (§5.2) kept as a maintained view
// of one (network, trace) pair. Per rule it holds the covered set T[r] of
// Algorithm 1, the covered fraction |T[r]|/|M[r]| and the weight |M[r]|;
// per device and per outgoing interface it holds the Equation 1 coverage
// and weight of DeviceSpec and OutIfaceSpec. The metric functions of
// metrics.go fold these values; nothing is re-derived for a device whose
// marks and rules have not changed since the last read.
//
// A device becomes dirty when the trace journals a change there (a packet
// mark that moved the set at one of its locations, a rule mark that was
// not already set) or when Remap names it as touched by a mutation. A new
// view has every device dirty, so a one-shot computation and a long-lived
// server run the same code. Refreshing a device is one pass over its
// rules in table order. A rule's values are a function of three inputs —
// its match set M[r], the union of the packets marked at its device and
// its rule mark — and each rule remembers the inputs it was computed
// from, so the pass pays for a rule only when its inputs moved: after a
// delta, the rules it changed, not every rule of the devices it touched.
// Even then a rule whose destination prefix the marks miss or hold whole
// is settled by a walk, not an intersection (unmarkedCovered). Every sum
// is still accumulated in the order the Spec framework (framework.go)
// would, so each float equals the from-scratch value bit for bit.
//
// A watched-context cancellation during a refresh leaves the device
// dirty: the next read recomputes it whole. Coverage is not safe for
// concurrent use (it shares the network's BDD manager).
type Coverage struct {
	Net   *netmodel.Network
	Trace *Trace

	rules []ruleView // by RuleID
	// Indexed by DeviceID and IfaceID: component coverage and weight.
	dev, devWeight []float64
	ifc, ifcWeight []float64

	dirty []bool // by DeviceID

	// How far the view has followed its inputs: the trace's change seq
	// and rule-log position, and the network's mutation generation.
	synced uint64
	logPos int
	netGen uint64
}

// ruleView is what the view holds about one rule: the covered set T[r]
// (its node in the network's space), the covered fraction and the weight
// |M[r]|, and the inputs they were computed from.
type ruleView struct {
	frac, weight float64
	covered      bdd.Node
	match, at    bdd.Node // M[r] and the device's marked union
	marked       bool     // the rule mark
	ok           bool     // false: never computed
}

// NewCoverage prepares metric computation over a frozen network and a
// trace. The trace should not be marked concurrently with computation.
func NewCoverage(net *netmodel.Network, trace *Trace) *Coverage {
	if !net.MatchSetsComputed() {
		panic("core: network match sets not computed")
	}
	c := &Coverage{
		Net:       net,
		Trace:     trace,
		dev:       make([]float64, len(net.Devices)),
		devWeight: make([]float64, len(net.Devices)),
		ifc:       make([]float64, len(net.Ifaces)),
		ifcWeight: make([]float64, len(net.Ifaces)),
		dirty:     make([]bool, len(net.Devices)),
	}
	trace.mu.Lock()
	defer trace.mu.Unlock()
	c.resetLocked()
	return c
}

// resetLocked forgets every cached value and adopts the inputs' current
// state as the baseline. The caller holds the trace lock.
func (c *Coverage) resetLocked() {
	c.rules = make([]ruleView, len(c.Net.Rules))
	for i := range c.dirty {
		c.dirty[i] = true
	}
	c.synced, c.logPos = c.Trace.seq, len(c.Trace.ruleLog)
	c.netGen = c.Net.Generation()
}

func (c *Coverage) markDirty(dev netmodel.DeviceID) {
	if int(dev) < len(c.dirty) {
		c.dirty[dev] = true
	}
}

// sync turns what the inputs journalled since the last call into dirty
// devices. It does no symbolic work. A network mutated, or rule marks
// rewritten, without a matching Remap invalidates every per-rule value,
// so the view starts over rather than attribute coverage to shifted IDs.
func (c *Coverage) sync() {
	t := c.Trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.Net.Generation() != c.netGen || t.remapSeq > c.synced {
		c.resetLocked()
		return
	}
	if t.seq == c.synced {
		return
	}
	for dev, seq := range t.devSeq {
		if seq > c.synced {
			c.markDirty(dev)
		}
	}
	for _, r := range t.ruleLog[c.logPos:] {
		if int(r) >= 0 && int(r) < len(c.Net.Rules) {
			c.markDirty(c.Net.Rules[r].Device)
		}
	}
	c.synced, c.logPos = t.seq, len(t.ruleLog)
}

// RefreshStats reports the work one Refresh did.
type RefreshStats struct {
	Devices int // devices re-derived
	Rules   int // rules whose covered set and fraction were recomputed
}

// Refresh brings every dirty device up to date and reports how much was
// recomputed; on a clean view it does no symbolic work. The metric
// functions call it themselves.
func (c *Coverage) Refresh() RefreshStats {
	c.sync()
	var st RefreshStats
	for dev, dirty := range c.dirty {
		if dirty {
			st.Rules += c.refreshDevice(netmodel.DeviceID(dev))
			st.Devices++
		}
	}
	return st
}

// ratio is Equation 1 for a weighted-mean component: Σv·w / Σw, 0 for an
// empty or weightless dependency set.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return clamp01(num / den)
}

// refreshDevice re-derives everything the view holds about one device
// and returns the number of rules whose values it recomputed.
func (c *Coverage) refreshDevice(dev netmodel.DeviceID) int {
	net, t := c.Net, c.Trace
	d := net.Devices[dev]
	t.mu.Lock()
	defer t.mu.Unlock()

	at := net.Space.Empty()
	for _, loc := range t.byDevice[dev] {
		at = at.Union(t.packets[loc])
	}
	// The interface slots accumulate Σv·w and Σw over the rules that
	// forward out of each interface (RulesForwardingTo's order: FIB
	// order), then take the owning connected routes, as OutIfaceSpec
	// lists them.
	for _, ifid := range d.Ifaces {
		c.ifc[ifid], c.ifcWeight[ifid] = 0, 0
	}
	var conn []netmodel.RuleID // connected routes, in FIB order
	var num, den float64
	recomputed := 0
	for ti, table := range [2][]netmodel.RuleID{d.ACL, d.FIB} {
		for _, rid := range table {
			r := net.Rules[rid]
			ms := r.MatchSet()
			rv := &c.rules[rid]
			marked := t.rules[rid]
			if !rv.ok || rv.match != ms.Node() || rv.marked != marked || (!marked && rv.at != at.Node()) {
				cov := ms
				if !marked {
					cov = unmarkedCovered(at, ms, r.Match.DstPrefix)
				}
				// |T[r]|/|M[r]| as Set.FractionOf computes it; T[r] ⊆
				// M[r], so its intersection with M[r] is T[r] itself.
				w := ms.Fraction()
				v := 0.0
				if w != 0 {
					v = clamp01(cov.Fraction() / w)
				}
				*rv = ruleView{frac: v, weight: w, covered: cov.Node(), match: ms.Node(), at: at.Node(), marked: marked, ok: true}
				recomputed++
			}
			v, w := rv.frac, rv.weight
			num += v * w
			den += w
			if ti == 0 {
				continue
			}
			if r.Action.Kind == netmodel.ActForward {
				outs := r.Action.OutIfaces
				for i, out := range outs {
					if int(out) < 0 || int(out) >= len(net.Ifaces) || net.Ifaces[out].Device != dev || slices.Contains(outs[:i], out) {
						continue
					}
					c.ifc[out] += v * w
					c.ifcWeight[out] += w
				}
			}
			if r.Origin == netmodel.OriginConnected {
				conn = append(conn, rid)
			}
		}
	}
	for _, ifid := range d.Ifaces {
		n, w := c.ifc[ifid], c.ifcWeight[ifid]
		if addr := net.Ifaces[ifid].Addr; addr.IsValid() {
			own := addr.Masked()
			for _, rid := range conn {
				if net.Rules[rid].Match.DstPrefix == own {
					n += c.rules[rid].frac * c.rules[rid].weight
					w += c.rules[rid].weight
				}
			}
		}
		c.ifc[ifid], c.ifcWeight[ifid] = ratio(n, w), w
	}
	c.dev[dev], c.devWeight[dev] = ratio(num, den), den
	c.dirty[dev] = false
	return recomputed
}

// unmarkedCovered is T[r] for a rule no test inspected: at ∩ M[r], with at
// the union of the packets marked at the rule's device and p its
// destination prefix. M[r] lies inside DstPrefix(p), so when at misses p
// the answer is ∅ and when at holds all of p it is M[r]; a walk of at
// along p's bits tells those two apart from the rest, and only a rule
// whose prefix at covers in part pays an intersection. Every case returns
// the node the intersection would.
func unmarkedCovered(at, ms hdr.Set, p netip.Prefix) hdr.Set {
	switch c := at.RestrictDstPrefix(p); {
	case c.IsEmpty():
		return at.Space().Empty()
	case c.IsFull():
		return ms
	}
	return at.Intersect(ms)
}

// Remap carries the view across a rule-level mutation of its network:
// remap is the old→new rule ID correspondence (netmodel.NoRule for a
// removed rule) and touched the devices whose tables were re-derived,
// both as netmodel.Mutation.Commit reports them. Rule IDs compact on
// removal, so every per-rule value moves to its new ID — in place: the
// remap is monotone on survivors, so each value moves down or stays.
// Rules of untouched devices keep their match sets and the trace keeps
// its packet marks, so their values stay valid; the touched devices
// become dirty, and their refresh recomputes only the rules whose inputs
// the mutation moved (an added rule has none recorded).
//
// The caller refreshes the view, commits the mutation, calls
// Trace.RemapRules and then Remap, with no other mark or mutation in
// between (delta.Engine.Apply does). Anything else — a second commit, a
// mark that slipped in — makes the view start over instead.
func (c *Coverage) Remap(remap []netmodel.RuleID, touched []netmodel.DeviceID) {
	t := c.Trace
	t.mu.Lock()
	defer t.mu.Unlock()
	inStep := c.Net.Generation() == c.netGen+1 && len(remap) == len(c.rules) &&
		t.remapSeq == c.synced+1 && t.seq == t.remapSeq
	if !inStep {
		c.resetLocked()
		return
	}
	kept := 0
	for from, to := range remap {
		if to != netmodel.NoRule {
			c.rules[to] = c.rules[from]
			kept++
		}
	}
	c.rules = slices.Grow(c.rules[:kept], len(c.Net.Rules)-kept)[:len(c.Net.Rules)]
	clear(c.rules[kept:])
	for _, dev := range touched {
		c.markDirty(dev)
	}
	c.synced, c.logPos = t.seq, len(t.ruleLog)
	c.netGen++
}

// Covered returns the covered set T[r] (Algorithm 1): the full match set
// when the rule was inspected directly, otherwise the intersection of the
// match set with the packets the trace saw at the rule's device.
func (c *Coverage) Covered(r netmodel.RuleID) hdr.Set {
	c.sync()
	if dev := c.Net.Rules[r].Device; c.dirty[dev] {
		c.refreshDevice(dev)
	}
	return c.Net.Space.FromNode(c.rules[r].covered)
}

// CoveredAt is Covered restricted to packets that arrived at a specific
// location — used by incoming-interface specifications, whose guards are
// limited to packets on the interface (§4.3.2).
func (c *Coverage) CoveredAt(r netmodel.RuleID, loc dataplane.Loc) hdr.Set {
	rule := c.Net.Rule(r)
	if c.Trace.RuleMarked(r) {
		return rule.MatchSet()
	}
	return c.Trace.PacketsAt(c.Net.Space, loc).Intersect(rule.MatchSet())
}
