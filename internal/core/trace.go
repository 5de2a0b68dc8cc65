// Package core implements the paper's coverage framework (§4) and the
// Yardstick two-phase system that computes it (§5).
//
// The primitive unit is the Atomic Testable Unit (ATU): one forwarding
// rule exercised on one packet. Tests never report ATUs directly — during
// the online phase they call the two tracking APIs of §5.1, MarkPacket for
// behavioral tests (the located packets at each hop; MarkConcrete is its
// form for a concrete test's packets along their traceroutes) and
// MarkRule for state-inspection tests. The tracker folds everything into
// the coverage trace (P_T, R_T) on the fly, so equivalent test suites
// produce equal traces and nothing is double counted.
//
// The post-processing phase (§5.2) derives each rule's covered set T[r]
// with Algorithm 1 and evaluates coverage specifications — guarded strings
// with a measure µ and combinator κ per component (Equation 1), aggregated
// across components (Equation 2).
package core

import (
	"sort"
	"sync"

	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
)

// Tracker is the coverage-reporting interface testing tools call during
// the online phase (§5.1).
type Tracker interface {
	// MarkPacket reports that a behavioral test exercised the located
	// packet set pkts (one call per hop for end-to-end tests).
	MarkPacket(loc dataplane.Loc, pkts hdr.Set)
	// MarkConcrete reports that a concrete test sent the pings' packets
	// of space sp along their traceroutes' hops: one call for a test
	// run's pings. It marks exactly what MarkPacket(hop.Loc,
	// sp.Singleton(ping.Packet)) at every hop of every ping marks; a
	// tracker may skip the BDD work for a hop that already holds the
	// packet, and build each location's set once.
	MarkConcrete(sp *hdr.Space, pings []Ping)
	// MarkRule reports that a state-inspection test inspected rule r.
	MarkRule(r netmodel.RuleID)
}

// Ping is one packet a concrete test sent and the hops its traceroute
// took.
type Ping struct {
	Packet hdr.Packet
	Hops   []dataplane.TraceHop
}

// Nop is a Tracker that discards everything; it measures the baseline
// cost of tests with coverage tracking disabled (Figure 8).
type Nop struct{}

// MarkPacket implements Tracker.
func (Nop) MarkPacket(dataplane.Loc, hdr.Set) {}

// MarkConcrete implements Tracker; it builds no set.
func (Nop) MarkConcrete(*hdr.Space, []Ping) {}

// MarkRule implements Tracker.
func (Nop) MarkRule(netmodel.RuleID) {}

// Trace is the coverage trace (P_T, R_T) of §5.2: the union of all
// located packets reported by MarkPacket and the set of rules reported by
// MarkRule. Overlapping reports are merged as they arrive, so the trace
// is independent of test order and repetition.
//
// Marking is guarded by a mutex so tests may report concurrently, but the
// underlying BDD manager is single-threaded: concurrent markers must not
// share a manager with other concurrent work.
//
// The trace also journals which marks really changed its state, so a
// Coverage view (coverage.go) re-derives only the devices a mark
// touched: re-reporting packets or rules the trace already holds moves
// nothing.
type Trace struct {
	mu      sync.Mutex
	packets map[dataplane.Loc]hdr.Set
	rules   map[netmodel.RuleID]bool

	// byDevice indexes the marked locations by device.
	byDevice map[netmodel.DeviceID][]dataplane.Loc
	// seq counts state changes. devSeq holds, per device, the seq of the
	// last change to a packet set there; ruleLog lists the marked rules in
	// marking order; remapSeq is the seq of the last RemapRules, which
	// rewrites the rule marks wholesale.
	seq      uint64
	devSeq   map[netmodel.DeviceID]uint64
	ruleLog  []netmodel.RuleID
	remapSeq uint64

	// assign is MarkConcrete's scratch packet assignment.
	assign []bool
}

// NewTrace returns an empty coverage trace.
func NewTrace() *Trace {
	return &Trace{
		packets:  make(map[dataplane.Loc]hdr.Set),
		rules:    make(map[netmodel.RuleID]bool),
		byDevice: make(map[netmodel.DeviceID][]dataplane.Loc),
		devSeq:   make(map[netmodel.DeviceID]uint64),
	}
}

// MarkPacket implements Tracker.
func (t *Trace) MarkPacket(loc dataplane.Loc, pkts hdr.Set) {
	if pkts.IsEmpty() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mark(loc, pkts)
}

// MarkConcrete implements Tracker. Each ping's packet assignment is
// derived once, and a hop whose set already holds the packet is settled
// by a walk of that set's diagram: no apply runs, the op cache is not
// probed and no node is made, so a batch whose every hop is held
// charges nothing. The packets the other hops miss are grouped by
// location in the order the pings first touch it, and each location
// takes one packet-set build of its packets (one hdr.PacketBuilder for
// the batch, so a source's chain is made once, not at every location
// its packets miss) and one union: no singleton is made and no union
// per hop. Each location ends on the
// node per-hop MarkPacket with the singletons leaves there, and a
// location that held every packet already records no change. A
// cancellation inside the batch leaves each location either as it was
// or at its full set. A set of another space counts as a miss, so the
// union reports the mismatch as MarkPacket would.
func (t *Trace) MarkConcrete(sp *hdr.Space, pings []Ping) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// missed lists, per location, the pings (by index) whose packet the
	// location does not hold.
	type missed struct {
		loc   dataplane.Loc
		pings []int32
	}
	var groups []missed
	var at map[dataplane.Loc]int
	for pi, p := range pings {
		if len(p.Hops) == 0 {
			continue
		}
		t.assign = sp.PacketAssign(p.Packet, t.assign)
		for _, hop := range p.Hops {
			if cur, ok := t.packets[hop.Loc]; ok && cur.Space() == sp && cur.ContainsAssign(t.assign) {
				continue
			}
			if at == nil {
				at = make(map[dataplane.Loc]int)
			}
			i, ok := at[hop.Loc]
			if !ok {
				i = len(groups)
				at[hop.Loc] = i
				groups = append(groups, missed{loc: hop.Loc})
			}
			groups[i].pings = append(groups[i].pings, int32(pi))
		}
	}
	if len(groups) == 0 {
		return
	}
	b := sp.PacketBuilder()
	var pkts []hdr.Packet
	for _, g := range groups {
		pkts = pkts[:0]
		for _, pi := range g.pings {
			pkts = append(pkts, pings[pi].Packet)
		}
		t.mark(g.loc, b.Packets(pkts))
	}
}

// mark folds a non-empty pkts into loc's set, journaling the change when
// the canonical node moves. The caller holds t.mu.
func (t *Trace) mark(loc dataplane.Loc, pkts hdr.Set) {
	if cur, ok := t.packets[loc]; ok {
		pkts = cur.Union(pkts)
		if pkts.Node() == cur.Node() {
			return // already covered: the canonical node did not move
		}
	} else {
		t.byDevice[loc.Device] = append(t.byDevice[loc.Device], loc)
	}
	t.packets[loc] = pkts
	t.seq++
	t.devSeq[loc.Device] = t.seq
}

// MarkRule implements Tracker.
func (t *Trace) MarkRule(r netmodel.RuleID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rules[r] {
		return
	}
	t.rules[r] = true
	t.seq++
	t.ruleLog = append(t.ruleLog, r)
}

// Merge folds another trace into t (used to combine traces of independent
// test suite runs).
func (t *Trace) Merge(other *Trace) {
	other.mu.Lock()
	locs := make(map[dataplane.Loc]hdr.Set, len(other.packets))
	for l, s := range other.packets {
		locs[l] = s
	}
	rules := make([]netmodel.RuleID, 0, len(other.rules))
	for r := range other.rules {
		rules = append(rules, r)
	}
	other.mu.Unlock()
	for l, s := range locs {
		t.MarkPacket(l, s)
	}
	for _, r := range rules {
		t.MarkRule(r)
	}
}

// TransferTo returns a copy of the trace whose packet sets live in dst's
// BDD space; marked rules carry over unchanged. It is how a worker-local
// trace recorded against a network replica is merged back into the
// canonical space: rule and location IDs are indices, identical across
// deterministic replicas, so only the symbolic sets need translating.
//
// All of a trace's sets normally share one source space, so the copy
// runs through a single hdr.Transfer session: one memo spans every
// per-location set (the sets overlap heavily — they are unions of the
// same test packets at successive hops), and when the source space is a
// clone of dst the shared node prefix is skipped outright. Sets already
// in dst pass through untouched; a trace mixing several source spaces
// still transfers correctly (the session is re-opened per source).
//
// The transfer reads the source spaces' managers and writes dst's, so
// the caller must hold them single-threaded for the duration (merge
// worker traces one at a time, after the workers have finished).
func (t *Trace) TransferTo(dst *hdr.Space) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := NewTrace()
	var tr *hdr.Transfer
	for loc, s := range t.packets {
		if s.Space() != dst {
			if tr == nil || tr.Src() != s.Space() {
				tr = hdr.NewTransfer(s.Space(), dst)
			}
			s = tr.Move(s)
		}
		out.MarkPacket(loc, s)
	}
	for r := range t.rules {
		out.MarkRule(r)
	}
	return out
}

// RemapRules rewrites the trace's rule marks through remap (old ID →
// new ID; netmodel.NoRule drops the mark) after a rule-level network
// mutation. Marks on IDs outside the remap are dropped too — they
// cannot refer to anything in the new universe. Packet marks are keyed
// by location, which survives rule churn unchanged, so they are not
// touched. It returns the old IDs whose marks were dropped, ascending —
// the explicit coverage decay a delta report accounts for.
func (t *Trace) RemapRules(remap []netmodel.RuleID) (dropped []netmodel.RuleID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rules := make(map[netmodel.RuleID]bool, len(t.rules))
	log := t.ruleLog[:0]
	for _, r := range t.ruleLog {
		if int(r) >= 0 && int(r) < len(remap) && remap[r] != netmodel.NoRule {
			rules[remap[r]] = true
			log = append(log, remap[r])
		} else {
			dropped = append(dropped, r)
		}
	}
	t.rules, t.ruleLog = rules, log
	t.seq++
	t.remapSeq = t.seq
	sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
	return dropped
}

// Equal reports whether two traces mark the same rules and equal packet
// sets at the same locations. Both traces' sets must live in the same
// BDD space — set equality is canonical-node identity within one
// manager, which is exactly the "bit-identical" a distributed run must
// reproduce against its single-node baseline. Empty-set entries count:
// MarkPacket never stores one, so any difference in stored locations is
// a real coverage difference.
//
// Equal snapshots each trace under its own lock in turn, never holding
// both at once, so it cannot deadlock against a concurrent
// Merge(a, b)/Merge(b, a) pair. Set comparison touches the shared BDD
// manager only trivially (node identity), so no manager serialization
// is needed beyond the usual single-threaded discipline.
func (t *Trace) Equal(other *Trace) bool {
	if t == other {
		return true
	}
	snap := func(tr *Trace) (map[dataplane.Loc]hdr.Set, map[netmodel.RuleID]bool) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		locs := make(map[dataplane.Loc]hdr.Set, len(tr.packets))
		for l, s := range tr.packets {
			locs[l] = s
		}
		rules := make(map[netmodel.RuleID]bool, len(tr.rules))
		for r := range tr.rules {
			rules[r] = true
		}
		return locs, rules
	}
	tl, tr := snap(t)
	ol, or := snap(other)
	if len(tl) != len(ol) || len(tr) != len(or) {
		return false
	}
	for r := range tr {
		if !or[r] {
			return false
		}
	}
	for loc, s := range tl {
		os, ok := ol[loc]
		if !ok || !s.Equal(os) {
			return false
		}
	}
	return true
}

// PacketsAt returns the trace's packet set at a location (empty set of sp
// when none).
func (t *Trace) PacketsAt(sp *hdr.Space, loc dataplane.Loc) hdr.Set {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.packets[loc]; ok {
		return s
	}
	return sp.Empty()
}

// RuleMarked reports whether r was reported via MarkRule.
func (t *Trace) RuleMarked(r netmodel.RuleID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rules[r]
}

// Locations returns the marked locations (order unspecified).
func (t *Trace) Locations() []dataplane.Loc {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]dataplane.Loc, 0, len(t.packets))
	for l := range t.packets {
		out = append(out, l)
	}
	return out
}

// Stats summarizes trace size.
type TraceStats struct {
	Locations, MarkedRules int
}

// Stats returns the number of marked locations and rules.
func (t *Trace) Stats() TraceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceStats{Locations: len(t.packets), MarkedRules: len(t.rules)}
}
