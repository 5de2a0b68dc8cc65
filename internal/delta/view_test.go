package delta_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/bgp"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/delta"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/report"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// The differential harness of the maintained coverage view: a seeded
// interleaving of suite runs, fragment merges, rule and packet marks,
// delta documents, trace resets and network replacements, and after
// every step the view's table, gap report and drift must equal — under
// math.Float64bits — a computation that shares nothing with the view:
// Algorithm 1 re-derived per rule from the trace's public accessors and
// folded through the Spec framework, as core computed the metrics before
// the view existed.

// scratch is that from-scratch computation over one (network, trace).
type scratch struct {
	c  *core.Coverage // carries Net and Trace into the Spec framework; its caches are never read
	at map[netmodel.DeviceID]hdr.Set
}

func newScratch(n *netmodel.Network, tr *core.Trace) *scratch {
	return &scratch{c: core.NewCoverage(n, tr), at: map[netmodel.DeviceID]hdr.Set{}}
}

// measure is FractionMeasure with T[r] derived here.
func (s *scratch) measure(c *core.Coverage, g core.GuardedString) float64 {
	rule := c.Net.Rule(g.Rules[0])
	ms := rule.MatchSet()
	covered := ms
	if !c.Trace.RuleMarked(rule.ID) {
		at, ok := s.at[rule.Device]
		if !ok {
			at = c.Net.Space.Empty()
			for _, loc := range c.Trace.Locations() {
				if loc.Device == rule.Device {
					at = at.Union(c.Trace.PacketsAt(c.Net.Space, loc))
				}
			}
			s.at[rule.Device] = at
		}
		covered = at.Intersect(ms)
	}
	return covered.FractionOf(ms)
}

// aggregate is Equation 2 with each component weighted by the packet
// space it handles.
func (s *scratch) aggregate(specs []core.Spec, kind core.AggKind) float64 {
	acc := core.NewAccum(kind)
	for _, sp := range specs {
		sp.Measure = s.measure
		w := 0.0
		for _, wi := range sp.Weights {
			w += wi
		}
		acc.Add(core.ComponentCoverage(s.c, sp), w)
	}
	return acc.Value()
}

func (s *scratch) deviceSpecs(devs []netmodel.DeviceID) []core.Spec {
	var out []core.Spec
	for _, d := range devs {
		out = append(out, core.DeviceSpec(s.c.Net, d))
	}
	return out
}

func (s *scratch) ifaceSpecs(ifaces []netmodel.IfaceID) []core.Spec {
	var out []core.Spec
	for _, i := range ifaces {
		out = append(out, core.OutIfaceSpec(s.c.Net, i))
	}
	return out
}

func (s *scratch) ruleSpecs(rules []netmodel.RuleID) []core.Spec {
	var out []core.Spec
	for _, r := range rules {
		sp := core.RuleSpec(s.c.Net, r)
		sp.Weights = []float64{s.c.Net.Rule(r).MatchSet().Fraction()}
		out = append(out, sp)
	}
	return out
}

func (s *scratch) metrics(label string, devs []netmodel.DeviceID) report.Metrics {
	n := s.c.Net
	rules := s.ruleSpecs(core.RulesOfDevices(n, devs))
	return report.Metrics{
		Label:            label,
		Devices:          len(devs),
		DeviceFractional: s.aggregate(s.deviceSpecs(devs), core.Fractional),
		IfaceFractional:  s.aggregate(s.ifaceSpecs(core.IfacesOfDevices(n, devs)), core.Fractional),
		RuleFractional:   s.aggregate(rules, core.Fractional),
		RuleWeighted:     s.aggregate(rules, core.Weighted),
	}
}

// gaps counts the rules with an empty covered set by (origin, role).
func (s *scratch) gaps() map[report.GapRow]int {
	out := map[report.GapRow]int{}
	for _, r := range s.c.Net.Rules {
		if r.MatchSet().IsEmpty() {
			continue
		}
		if s.measure(s.c, core.GuardedString{Rules: []netmodel.RuleID{r.ID}}) == 0 {
			out[report.GapRow{Origin: r.Origin, Role: s.c.Net.Device(r.Device).Role}]++
		}
	}
	return out
}

// deviceDrift is weighted rule coverage per device name, the quantity a
// delta's drift report carries.
func (s *scratch) deviceDrift() map[string]float64 {
	out := map[string]float64{}
	for _, d := range s.c.Net.Devices {
		out[d.Name] = s.aggregate(s.ruleSpecs(s.c.Net.DeviceRules(d.ID)), core.Weighted)
	}
	return out
}

func allIDs[ID ~int32](n int) []ID {
	out := make([]ID, n)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

func rolesOf(n *netmodel.Network) []netmodel.Role {
	seen := map[netmodel.Role]bool{}
	var out []netmodel.Role
	for _, d := range n.Devices {
		if !seen[d.Role] {
			seen[d.Role] = true
			out = append(out, d.Role)
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameMetrics(a, b report.Metrics) bool {
	return a.Label == b.Label && a.Devices == b.Devices &&
		sameBits(a.DeviceFractional, b.DeviceFractional) && sameBits(a.IfaceFractional, b.IfaceFractional) &&
		sameBits(a.RuleFractional, b.RuleFractional) && sameBits(a.RuleWeighted, b.RuleWeighted)
}

// assertViewEqualsScratch compares everything the view serves with the
// from-scratch computation.
func assertViewEqualsScratch(t testing.TB, step string, view *core.Coverage) {
	t.Helper()
	n := view.Net
	s := newScratch(n, view.Trace)
	roles := rolesOf(n)
	got := append(report.ByRole(view, roles), report.Total(view, "total"))
	var want []report.Metrics
	for _, role := range roles {
		want = append(want, s.metrics(string(role), core.DevicesByRole(n, role)))
	}
	want = append(want, s.metrics("total", allIDs[netmodel.DeviceID](len(n.Devices))))
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", step, len(got), len(want))
	}
	for i := range want {
		if !sameMetrics(got[i], want[i]) {
			t.Fatalf("%s: row %q differs from scratch:\n view    %+v\n scratch %+v", step, want[i].Label, got[i], want[i])
		}
	}

	gaps := s.gaps()
	rows := report.Gaps(view)
	if len(rows) != len(gaps) {
		t.Fatalf("%s: %d gap buckets, scratch has %d", step, len(rows), len(gaps))
	}
	for _, g := range rows {
		if gaps[report.GapRow{Origin: g.Origin, Role: g.Role}] != g.Count {
			t.Fatalf("%s: gap bucket %s/%s = %d, scratch %d", step, g.Origin, g.Role, g.Count,
				gaps[report.GapRow{Origin: g.Origin, Role: g.Role}])
		}
	}

	// The three aggregate entry points the bench harness calls, with nil
	// meaning "every component", under each aggregator.
	devs, ifaces, rules := allIDs[netmodel.DeviceID](len(n.Devices)), allIDs[netmodel.IfaceID](len(n.Ifaces)), allIDs[netmodel.RuleID](len(n.Rules))
	for _, kind := range []core.AggKind{core.Simple, core.Weighted, core.Fractional} {
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"DeviceCoverage", core.DeviceCoverage(view, nil, kind), s.aggregate(s.deviceSpecs(devs), kind)},
			{"InterfaceCoverage", core.InterfaceCoverage(view, nil, kind), s.aggregate(s.ifaceSpecs(ifaces), kind)},
			{"RuleCoverage", core.RuleCoverage(view, nil, kind), s.aggregate(s.ruleSpecs(rules), kind)},
		} {
			if !sameBits(m.got, m.want) {
				t.Fatalf("%s: %s(%v) = %v, scratch %v", step, m.name, kind, m.got, m.want)
			}
		}
	}
}

// world is one network under the interleaving.
type world struct {
	t   testing.TB
	rng *rand.Rand
	eng *delta.Engine
	// Regional only: the control-plane replay that generates flap
	// documents, and the spines whose ACLs every re-converged network
	// gets back.
	replay *bgp.Replay
	spines []netmodel.DeviceID
}

var viewSuites = []string{"default", "connected", "internal", "agg", "contract", "reach", "pingmesh", "host"}

// addSpineACLs gives every spine a fixed 5-tuple ACL.
func addSpineACLs(n *netmodel.Network, spines []netmodel.DeviceID) {
	rng := rand.New(rand.NewSource(0x61636c))
	for _, sp := range spines {
		for j := 0; j < 4; j++ {
			m := netmodel.MatchAll()
			m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(rng.Intn(256)), 0}), 24)
			m.Proto = []int32{6, 17}[rng.Intn(2)]
			m.DstPortLo = uint16(1024 + rng.Intn(60000))
			m.DstPortHi = m.DstPortLo + uint16(rng.Intn(2000))
			n.AddACLRule(sp, m, true)
		}
		n.AddACLRule(sp, netmodel.MatchAll(), false)
	}
}

// The base networks are built once and cloned per run: convergence and
// match-set derivation dominate a run otherwise.
var (
	baseOnce     sync.Once
	baseRegional *topogen.Regional
	baseACL      *netmodel.Network // baseRegional with spine ACLs, frozen
	baseFatTree  *netmodel.Network
	baseErr      error
)

func bases(t testing.TB) {
	baseOnce.Do(func() {
		opts := topogen.RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8} // the benchmark's regional-m
		k := 6
		if testing.Short() {
			opts, k = topogen.RegionalOpts{}, 4
		}
		if baseRegional, baseErr = topogen.BuildRegional(opts); baseErr != nil {
			return
		}
		baseACL = baseRegional.Net.CloneTopology()
		for _, r := range baseRegional.Net.Rules {
			baseACL.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
		}
		addSpineACLs(baseACL, baseRegional.Spines)
		baseACL.ComputeMatchSets()
		var ft *topogen.FatTree
		if ft, baseErr = topogen.BuildFatTree(k); baseErr == nil {
			baseFatTree = ft.Net
		}
	})
	if baseErr != nil {
		t.Fatal(baseErr)
	}
}

func newWorld(t testing.TB, seed int64, fatTree bool) *world {
	bases(t)
	w := &world{t: t, rng: rand.New(rand.NewSource(seed))}
	n := baseFatTree.Clone()
	if !fatTree {
		n = baseACL.Clone()
		rg := baseRegional
		w.replay = bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
		w.spines = rg.Spines
	}
	w.install(n, core.NewTrace())
	return w
}

// install starts over with a fresh view of (n, tr), as the service does
// wherever it replaces its network or trace.
func (w *world) install(n *netmodel.Network, tr *core.Trace) {
	eng, err := delta.NewEngine(n, tr)
	if err != nil {
		w.t.Fatal(err)
	}
	w.eng = eng
}

func (w *world) suite() testkit.Suite {
	s, err := testkit.BuiltinSuite(viewSuites[w.rng.Intn(len(viewSuites))])
	if err != nil {
		w.t.Fatal(err)
	}
	return s
}

func encode(t testing.TB, n *netmodel.Network) []byte {
	var buf bytes.Buffer
	if err := n.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ops builds the next delta document: on the regional network one flap
// of a random origination, re-converged and diffed against the live
// network; on the fat-tree random removes, modifies and adds.
func (w *world) ops() []delta.Op {
	n := w.eng.Net
	if w.replay == nil {
		var ops []delta.Op
		used := map[netmodel.RuleID]bool{}
		dst := func() string {
			return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(w.rng.Intn(8)), byte(w.rng.Intn(256)), 0}), 8+w.rng.Intn(17)).Masked().String()
		}
		for i := 0; i < 1+w.rng.Intn(5); i++ {
			id := netmodel.RuleID(w.rng.Intn(len(n.Rules)))
			switch k := w.rng.Intn(3); {
			case k == 0 && !used[id]:
				used[id] = true
				ops = append(ops, delta.Op{Op: delta.OpRemove, Rule: id})
			case k == 1 && !used[id]:
				used[id] = true
				spec := n.RuleSpecOf(id)
				spec.Match.Dst = dst()
				ops = append(ops, delta.Op{Op: delta.OpModify, Rule: id, Spec: &spec})
			default:
				dev := n.Devices[w.rng.Intn(len(n.Devices))]
				ops = append(ops, delta.Op{Op: delta.OpAdd, Spec: &netmodel.RuleSpec{
					Device: int32(dev.ID), Table: "fib", Action: "drop", Origin: "static",
					Match: netmodel.MatchSpec{Dst: dst()},
				}})
			}
		}
		return ops
	}
	origin := w.rng.Intn(len(baseRegional.Origins))
	up := w.rng.Intn(2) == 0
	if err := w.replay.Toggle(bgp.FlapEvent{Origin: origin, Up: up}); err != nil {
		w.t.Fatal(err)
	}
	next, err := w.replay.Build()
	if err != nil {
		w.t.Fatal(err)
	}
	addSpineACLs(next, w.spines)
	ops, err := delta.Diff(n, next)
	if err != nil {
		w.t.Fatal(err)
	}
	return ops
}

// step performs one random operation and returns its name.
func (w *world) step() string {
	e := w.eng
	ctx := context.Background()
	switch k := w.rng.Intn(13); k {
	case 0, 1, 2:
		w.suite().Run(ctx, e.Net, e.Trace)
		return "suite"
	case 3, 4:
		frag := core.NewTrace()
		w.suite().Run(ctx, e.Net, frag)
		e.Trace.Merge(frag)
		return "merge"
	case 5:
		for i := 0; i < 3; i++ {
			e.Trace.MarkRule(netmodel.RuleID(w.rng.Intn(len(e.Net.Rules))))
		}
		return "markRule"
	case 6:
		// Half of some device's address space on one of its locations:
		// fractions strictly between 0 and 1.
		d := e.Net.Devices[w.rng.Intn(len(e.Net.Devices))]
		loc := dataplane.Injected(d.ID)
		if len(d.Ifaces) > 0 && w.rng.Intn(2) == 0 {
			loc = dataplane.Loc{Device: d.ID, Iface: d.Ifaces[w.rng.Intn(len(d.Ifaces))]}
		}
		pkts := e.Net.Space.DstPrefix(netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(w.rng.Intn(256)), 0, 0, 0}), 1+w.rng.Intn(12)).Masked())
		if e.Net.Family() == hdr.V6 {
			pkts = e.Net.Space.Full()
		}
		e.Trace.MarkPacket(loc, pkts)
		return "markPacket"
	case 7, 8, 9, 10:
		before := newScratch(e.Net, e.Trace).deviceDrift()
		ap, err := e.Apply(delta.Document{Base: e.Fingerprint(), Ops: w.ops()})
		if err != nil {
			w.t.Fatalf("apply: %v", err)
		}
		// The fingerprint is held to an encoding that reads no cached
		// bytes and a hash that resumes from no mark: a clone carries
		// neither.
		fresh := encode(w.t, e.Net.Clone())
		if sum := sha256.Sum256(fresh); ap.Fingerprint != hex.EncodeToString(sum[:]) || !bytes.Equal(encode(w.t, e.Net), fresh) {
			w.t.Fatalf("fingerprint %.12s or cached encoding stale against a fresh encoding", ap.Fingerprint)
		}
		after := newScratch(e.Net, e.Trace).deviceDrift()
		if len(ap.Drift) != len(ap.Touched) {
			w.t.Fatalf("drift has %d rows for %d touched devices", len(ap.Drift), len(ap.Touched))
		}
		for _, d := range ap.Drift {
			if !sameBits(d.Before, before[d.Device]) || !sameBits(d.After, after[d.Device]) {
				w.t.Fatalf("drift of %s = %v → %v, scratch %v → %v", d.Device, d.Before, d.After, before[d.Device], after[d.Device])
			}
		}
		return fmt.Sprintf("delta(%d devices)", len(ap.Touched))
	case 11:
		w.install(e.Net, core.NewTrace())
		return "resetTrace"
	default:
		rb, err := netmodel.DecodeJSON(bytes.NewReader(encode(w.t, e.Net)))
		if err != nil {
			w.t.Fatal(err)
		}
		w.install(rb, e.Trace.TransferTo(rb.Space))
		return "replaceNetwork"
	}
}

func runInterleaving(t testing.TB, seed int64, steps int, fatTree bool) {
	w := newWorld(t, seed, fatTree)
	assertViewEqualsScratch(t, "empty", w.eng.View)
	for i := 0; i < steps; i++ {
		name := w.step()
		t.Logf("step %d: %s", i, name)
		assertViewEqualsScratch(t, fmt.Sprintf("seed %d step %d (%s)", seed, i, name), w.eng.View)
	}
}

func TestViewEqualsScratch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		steps   int
		fatTree bool
	}{
		{"regional-acl/seed1", 1, 10, false},
		{"regional-acl/seed2", 2, 10, false},
		{"fattree/seed1", 1, 14, true},
		{"fattree/seed3", 3, 14, true},
	} {
		t.Run(tc.name, func(t *testing.T) { runInterleaving(t, tc.seed, tc.steps, tc.fatTree) })
	}
}

// FuzzViewEquivalence lets the fuzzer pick the interleaving.
func FuzzViewEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), false)
	f.Add(int64(7), uint8(9), true)
	f.Fuzz(func(t *testing.T, seed int64, steps uint8, fatTree bool) {
		runInterleaving(t, seed, int(steps%12), fatTree)
	})
}

// TestRefreshRecomputesChangedRules: after a one-rule commit, refreshing
// the view re-derives the touched device but recomputes only the rules
// whose inputs moved — none for an action change, the removed rule's
// parent for a removal — and still equals the from-scratch computation.
func TestRefreshRecomputesChangedRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(n *netmodel.Network, mut *netmodel.Mutation, id netmodel.RuleID) error
		max  int
	}{
		{"action", func(n *netmodel.Network, mut *netmodel.Mutation, id netmodel.RuleID) error {
			r := n.Rule(id)
			return mut.Modify(id, netmodel.RuleDef{Device: r.Device, Table: r.Table, Match: r.Match, Origin: r.Origin,
				Action: netmodel.Action{Kind: netmodel.ActDrop}})
		}, 0},
		{"remove", func(_ *netmodel.Network, mut *netmodel.Mutation, id netmodel.RuleID) error {
			return mut.Remove(id)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, 1, true)
			e := w.eng
			w.suite().Run(context.Background(), e.Net, e.Trace)
			e.View.Refresh()
			d := e.Net.Devices[0]
			mut := e.Net.BeginMutation()
			if err := tc.edit(e.Net, mut, d.FIB[0]); err != nil {
				t.Fatal(err)
			}
			res, err := mut.Commit()
			if err != nil {
				t.Fatal(err)
			}
			e.Trace.RemapRules(res.Remap)
			e.View.Remap(res.Remap, res.Touched)
			st := e.View.Refresh()
			if st.Devices != 1 || st.Rules > tc.max {
				t.Errorf("refresh re-derived %d devices and recomputed %d rules; want 1 device and at most %d of its %d rules",
					st.Devices, st.Rules, tc.max, len(e.Net.DeviceRules(d.ID)))
			}
			assertViewEqualsScratch(t, tc.name, e.View)
		})
	}
}

// TestApplyAllocationBound keeps Apply's garbage proportional to the one
// thing a commit must replace — the rule structs, one slab — rather than
// to the network's JSON encoding or to per-rule scratch: on a 2-core
// host the collector shares cores with the daemon's writer, so bytes
// allocated per delta show up as latency spread between runs.
func TestApplyAllocationBound(t *testing.T) {
	w := newWorld(t, 5, false)
	w.suite().Run(context.Background(), w.eng.Net, w.eng.Trace)
	// A BDD hash table that doubles during a delta is one multi-megabyte
	// allocation decided by where the node count stands, not by Apply, so
	// the new table's bytes (20 per op-cache slot, 16 per unique-table
	// slot) are taken off the delta that happened to cross the threshold.
	tableBytes := func(s0, s1 bdd.Stats) (n uint64) {
		if s1.CacheSlots != s0.CacheSlots {
			n += 20 * uint64(s1.CacheSlots)
		}
		if s1.UniqueSlots != s0.UniqueSlots {
			n += 16 * uint64(s1.UniqueSlots)
		}
		return n
	}
	m := w.eng.Net.Space.Manager()
	apply := func() uint64 {
		doc := delta.Document{Ops: w.ops()}
		var before, after runtime.MemStats
		s0 := m.Stats()
		runtime.ReadMemStats(&before)
		if _, err := w.eng.Apply(doc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc - tableBytes(s0, m.Stats())
	}
	apply() // the BDD tables settle on the first delta
	var worst uint64
	for i := 0; i < 4; i++ {
		worst = max(worst, apply())
	}
	rules := uint64(len(w.eng.Net.Rules))
	t.Logf("%d rules: at most %d bytes per delta, %d per rule", rules, worst, worst/rules)
	if limit := 400*rules + 256<<10; worst > limit {
		t.Fatalf("Apply allocated %d bytes on %d rules, limit %d", worst, rules, limit)
	}
}
