package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"yardstick/internal/bdd"
	"yardstick/internal/bgp"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/delta"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/sharded"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// Layer probes: the traced run calls each layer's public functions on
// the workload's generated network, from outside, with a span around
// every call. Timings are single calls or medians of a few; counts
// repeat exactly for a seed.

const (
	probePairs   = 20000     // BDD binary ops timed per kind
	probePaths   = 20000     // path budget of the enumeration probes
	probePackets = 2000      // concrete traceroutes
	probeFlaps   = flapCycle // flap events of the delta probe: the seeded part of a churn cycle
)

// shortTest maps a test's name to the suffix of its testkit.*_ms metric.
var shortTest = map[string]string{
	"DefaultRouteCheck": "default", "ConnectedRouteCheck": "connected", "InternalRouteCheck": "internal",
	"AggCanReachTorLoopback": "agg", "ToRContract": "contract", "ToRReachability": "reach",
	"ToRPingmesh": "pingmesh", "HostInterfaceCheck": "host",
}

// prober times calls and keeps the metric values.
type prober struct {
	rec *recorder
	m   map[string]float64
}

// ms runs fn in a span named name and returns its duration in ms.
func (p *prober) ms(name string, fn func()) float64 {
	runtime.GC() // the probes allocate whole networks; keep one probe's garbage out of the next one's time
	id := p.rec.begin(name, 0, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.rec.end(id)
	return float64(d.Nanoseconds()) / 1e6
}

func kb(n int) float64 { return float64(n) / 1024 }

// probeLayers measures every per-layer metric that needs no running
// program. in is the workload's input; nothing in it is mutated.
func probeLayers(in *inputs, seed int64, rec *recorder) (map[string]float64, error) {
	p := &prober{rec: rec, m: map[string]float64{}}
	ctx := context.Background()
	var err error
	fail := func(what string, e error) (map[string]float64, error) {
		return nil, fmt.Errorf("probe %s: %w", what, e)
	}

	// topogen, bgp
	if in.regional == nil {
		p.m["topogen.build_ms"] = p.ms("topogen.build", func() { _, err = topogen.BuildFatTree(fatTreeK) })
	} else {
		p.m["topogen.build_ms"] = p.ms("topogen.build", func() { _, err = topogen.BuildRegional(regionalOpts) })
		if err == nil {
			rg := in.regional
			p.m["bgp.run_ms"] = p.ms("bgp.run", func() {
				_, err = bgp.Run(bgp.Config{Net: rg.Net.CloneTopology(), Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
			})
		}
	}
	if err != nil {
		return fail("topogen/bgp", err)
	}

	// netmodel
	unfrozen := unfrozenCopy(in.net)
	p.m["netmodel.matchsets_ms"] = p.ms("netmodel.matchsets", unfrozen.ComputeMatchSets)
	p.m["netmodel.clone_ms"] = p.ms("netmodel.clone", func() { in.net.Clone() })
	var enc bytes.Buffer
	p.m["netmodel.json_encode_ms"] = p.ms("netmodel.json_encode", func() { err = in.net.EncodeJSON(&enc) })
	if err != nil {
		return fail("netmodel encode", err)
	}
	p.m["netmodel.json_kb"] = kb(enc.Len())
	var cold *netmodel.Network
	p.m["netmodel.json_decode_ms"] = p.ms("netmodel.json_decode", func() { cold, err = netmodel.DecodeJSON(bytes.NewReader(enc.Bytes())) })
	if err != nil {
		return fail("netmodel decode", err)
	}

	// testkit with tracking, cold; the BDD counters around it.
	suite, err := testkit.BuiltinSuite(strings.Join(allSuites, ","))
	if err != nil {
		return fail("suite", err)
	}
	tr := core.NewTrace()
	base := cold.Space.EngineStats()
	var tracked float64
	for _, t := range suite {
		var r testkit.Result
		d := p.ms("testkit."+t.Name(), func() { r = t.Run(cold, tr) })
		if !r.Pass() {
			return fail(t.Name(), fmt.Errorf("%s", r.Status()))
		}
		p.m["testkit."+shortTest[t.Name()]+"_ms"] = d
		tracked += d
	}
	after := cold.Space.EngineStats()
	st := after.Delta(base)
	p.m["bdd.ops_op"] = float64(st.Ops)
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		p.m["bdd.cache_hit_ratio"] = float64(st.CacheHits) / float64(n)
	}
	p.m["bdd.nodes_peak"] = float64(after.PeakNodes)
	p.m["bdd.unique_load"] = after.UniqueLoad
	p.m["bdd.resizes"] = float64(st.UniqueResizes + st.CacheResizes)

	// Figure 8's ratio: the suite with tracking on over the suite with
	// tracking off, each on its own cold network. The order is on, off,
	// off, on, so that whatever drifts over the probe (heap size, CPU
	// frequency) weighs on both sides alike.
	coldRun := func(tracker func() core.Tracker, span string) (float64, *netmodel.Network, error) {
		n, err := netmodel.DecodeJSON(bytes.NewReader(enc.Bytes()))
		if err != nil {
			return 0, nil, err
		}
		var total float64
		for _, t := range suite {
			total += p.ms(span+t.Name(), func() { t.Run(n, tracker()) })
		}
		return total, n, nil
	}
	off1, nop, err := coldRun(func() core.Tracker { return core.Nop{} }, "testkit.nop.")
	if err != nil {
		return fail("netmodel decode", err)
	}
	off2, _, err := coldRun(func() core.Tracker { return core.Nop{} }, "testkit.nop.")
	if err != nil {
		return fail("netmodel decode", err)
	}
	sink := core.NewTrace()
	on2, _, err := coldRun(func() core.Tracker { return sink }, "testkit.on.")
	if err != nil {
		return fail("netmodel decode", err)
	}
	p.m["testkit.tracking_overhead_ratio"] = (tracked + on2) / (off1 + off2)

	p.probeBDD(in.net, cold)
	p.probeHdr(in.net, cold, tr)
	p.probeDataplane(ctx, in, nop, seed)
	if err := p.probeCore(ctx, cold, tr); err != nil {
		return fail("core", err)
	}
	if err := p.probeSharded(ctx, enc.Bytes(), suite, tracked); err != nil {
		return fail("sharded", err)
	}
	if in.regional != nil {
		// Last: the delta engine mutates the network it is given.
		if err := p.probeDelta(ctx, in, cold, tr, suite, seed); err != nil {
			return fail("delta", err)
		}
	}

	// obs: the cost of one public span.
	root := obs.NewSpan("bench")
	const spans = 20000
	t0 := time.Now()
	for i := 0; i < spans; i++ {
		root.Child("probe").End()
	}
	p.m["obs.span_ns"] = float64(time.Since(t0).Nanoseconds()) / spans
	return p.m, nil
}

// probeBDD times the kernel's binary ops over pairs of rule match sets
// in a clone (so the pairs meet a cold op cache for these operands), and
// the clone and arena codecs on the evaluated manager.
func (p *prober) probeBDD(n, evaluated *netmodel.Network) {
	c := n.Clone()
	mgr := c.Space.Manager()
	rules := c.Rules
	pairs := min(probePairs, len(rules))
	node := func(i int) bdd.Node { return rules[i%len(rules)].MatchSet().Node() }
	per := func(name string, op func(a, b bdd.Node) bdd.Node) {
		d := p.ms(name, func() {
			for i := 0; i < pairs; i++ {
				op(node(i), node(i*7919+13))
			}
		})
		p.m[name+"_ns"] = d * 1e6 / float64(pairs)
	}
	per("bdd.and", mgr.And)
	per("bdd.or", mgr.Or)
	per("bdd.diff", mgr.Diff)
	d := p.ms("bdd.satcount", func() {
		for i := 0; i < pairs; i++ {
			mgr.SatCount(node(i))
		}
	})
	p.m["bdd.satcount_ns"] = d * 1e6 / float64(pairs)

	em := evaluated.Space.Manager()
	p.m["bdd.clone_ms"] = p.ms("bdd.clone", func() { em.Clone() })
	var arena bytes.Buffer
	p.m["bdd.arena_encode_ms"] = p.ms("bdd.arena_encode", func() { _ = em.WriteArena(&arena) }) // bytes.Buffer cannot fail
	p.m["bdd.arena_kb"] = kb(arena.Len())
	p.m["bdd.arena_decode_ms"] = p.ms("bdd.arena_decode", func() { _, _ = bdd.DecodeArena(arena.Bytes()) })
}

// probeHdr times prefix-set construction in a fresh space and the two
// transfer shapes: into a clone of the trace's space (shared prefix) and
// into an empty one.
func (p *prober) probeHdr(n, evaluated *netmodel.Network, tr *core.Trace) {
	seen := map[netip.Prefix]bool{}
	var prefixes []netip.Prefix
	for _, r := range n.Rules {
		if pf := r.Match.DstPrefix; pf.IsValid() && !seen[pf] && len(prefixes) < 4096 {
			seen[pf] = true
			prefixes = append(prefixes, pf)
		}
	}
	sp := hdr.NewFamilySpace(n.Family())
	d := p.ms("hdr.dstprefix", func() {
		for _, pf := range prefixes {
			sp.DstPrefix(pf)
		}
	})
	p.m["hdr.dstprefix_ns"] = d * 1e6 / float64(len(prefixes))
	const batch = 64
	batches := 0
	d = p.ms("hdr.from_prefixes", func() {
		for i := 0; i+batch <= len(prefixes); i += batch {
			sp.FromDstPrefixes(prefixes[i : i+batch])
			batches++
		}
	})
	if batches > 0 {
		p.m["hdr.from_prefixes_us"] = d * 1e3 / float64(batches)
	}
	shared := evaluated.Space.Clone()
	p.m["hdr.transfer_shared_ms"] = p.ms("hdr.transfer_shared", func() { tr.TransferTo(shared) })
	fresh := hdr.NewFamilySpace(n.Family())
	p.m["hdr.transfer_fresh_ms"] = p.ms("hdr.transfer_fresh", func() { tr.TransferTo(fresh) })
}

func (p *prober) probeDataplane(ctx context.Context, in *inputs, n *netmodel.Network, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x6470)) // "dp"
	tors := in.tors
	d := p.ms("dataplane.traceroute", func() {
		for i := 0; i < probePackets; i++ {
			a, b := tors[rng.Intn(len(tors))], tors[rng.Intn(len(tors))]
			pkt := hdr.Packet{Dst: in.hostPrefix[b].Addr().Next(), Src: in.hostPrefix[a].Addr().Next(),
				Proto: 6, DstPort: 443, SrcPort: uint16(1024 + i)}
			dataplane.Traceroute(n, dataplane.Injected(a), pkt)
		}
	})
	p.m["dataplane.traceroute_us"] = d * 1e3 / probePackets
	var reach []float64
	for i := 0; i < 3; i++ {
		tor := tors[rng.Intn(len(tors))]
		reach = append(reach, p.ms("dataplane.reach", func() {
			_, _ = dataplane.Reach(n, dataplane.Injected(tor), n.Space.Full(), dataplane.ReachOpts{}) // timing only
		}))
	}
	p.m["dataplane.reach_ms"] = median(reach)
	p.m["dataplane.enum_paths_ms"] = p.ms("dataplane.enum_paths", func() {
		dataplane.EnumeratePaths(ctx, n, dataplane.EdgeStarts(n), dataplane.EnumOpts{MaxPaths: probePaths},
			func(dataplane.Path) bool { return true })
	})
}

// probeCore times the four metrics of the paper's Figure 9 on the
// full-suite trace, then the trace codecs.
func (p *prober) probeCore(ctx context.Context, n *netmodel.Network, tr *core.Trace) error {
	// A fresh Coverage per metric: a Coverage memoizes what it computes.
	p.m["core.metric_device_ms"] = p.ms("core.metric_device", func() { core.DeviceCoverage(core.NewCoverage(n, tr), nil, core.Fractional) })
	p.m["core.metric_iface_ms"] = p.ms("core.metric_iface", func() { core.InterfaceCoverage(core.NewCoverage(n, tr), nil, core.Fractional) })
	p.m["core.metric_rule_ms"] = p.ms("core.metric_rule", func() {
		c := core.NewCoverage(n, tr)
		core.RuleCoverage(c, nil, core.Fractional)
		core.RuleCoverage(c, nil, core.Weighted)
	})
	p.m["core.metric_path_ms"] = p.ms("core.metric_path", func() {
		core.PathCoverage(ctx, core.NewCoverage(n, tr), nil, dataplane.EnumOpts{MaxPaths: probePaths}, core.Fractional)
	})
	p.m["core.trace_merge_ms"] = p.ms("core.trace_merge", func() { core.NewTrace().Merge(tr) })

	var js bytes.Buffer
	var err error
	p.m["core.tracejson_encode_ms"] = p.ms("core.tracejson_encode", func() { err = tr.EncodeJSON(&js) })
	if err != nil {
		return err
	}
	p.m["core.tracejson_kb"] = kb(js.Len())
	p.m["core.tracejson_decode_ms"] = p.ms("core.tracejson_decode", func() { _, err = core.DecodeTraceJSON(n, bytes.NewReader(js.Bytes())) })
	if err != nil {
		return err
	}
	var arena bytes.Buffer
	p.m["core.arena_encode_ms"] = p.ms("core.arena_encode", func() { err = core.EncodeSnapshotArena(&arena, n, tr) })
	if err != nil {
		return err
	}
	p.m["core.arena_kb"] = kb(arena.Len())
	p.m["core.arena_decode_ms"] = p.ms("core.arena_decode", func() { _, err = core.DecodeSnapshotArena(arena.Bytes(), n) })
	return err
}

// probeSharded times the parallel engine on a cold network, and the
// merge it performs — replica-recorded traces moved into the canonical
// space — as its own public calls.
func (p *prober) probeSharded(ctx context.Context, netJSON []byte, suite testkit.Suite, sequentialMS float64) error {
	n, err := netmodel.DecodeJSON(bytes.NewReader(netJSON))
	if err != nil {
		return err
	}
	var eng *sharded.Engine
	p.m["sharded.build_replicas_ms"] = p.ms("sharded.build_replicas", func() {
		eng, err = sharded.New(ctx, n, sharded.Config{Workers: 2})
	})
	if err != nil {
		return err
	}
	var res *sharded.Result
	run := p.ms("sharded.run", func() { res, err = eng.Run(ctx, suite) })
	if err != nil {
		return err
	}
	p.m["sharded.run_ms"] = run
	p.m["sharded.speedup_ratio"] = sequentialMS / run
	var maxOps, sumOps float64
	for _, sh := range res.Shards {
		ops := float64(sh.Engine.Ops)
		maxOps = max(maxOps, ops)
		sumOps += ops
	}
	if sumOps > 0 {
		p.m["sharded.imbalance_ratio"] = maxOps / (sumOps / float64(len(res.Shards)))
	}

	// Two replicas each record half the suite; the merge is timed alone.
	halves := []testkit.Suite{suite[:len(suite)/2], suite[len(suite)/2:]}
	var traces []*core.Trace
	for _, h := range halves {
		replica := n.Clone()
		t := core.NewTrace()
		h.Run(ctx, replica, t)
		traces = append(traces, t)
	}
	merged := core.NewTrace()
	p.m["sharded.merge_ms"] = p.ms("sharded.merge", func() {
		for _, t := range traces {
			merged.Merge(t.TransferTo(n.Space))
		}
	})
	return nil
}

// probeDelta replays a few flap events through the delta engine and
// sets them against the from-scratch alternative.
func (p *prober) probeDelta(ctx context.Context, in *inputs, n *netmodel.Network, tr *core.Trace, suite testkit.Suite, seed int64) error {
	rg := in.regional
	eng, err := delta.NewEngine(n, tr)
	if err != nil {
		return err
	}
	replay := bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
	var diffs, applies, opsPer []float64
	for i, ev := range flapSchedule(seed, hostOrigins(rg))[:probeFlaps] {
		if err := replay.Toggle(ev); err != nil {
			return err
		}
		next, err := replay.Build()
		if err != nil {
			return err
		}
		addSpineACLs(next, rg.Spines, seed)
		next.ComputeMatchSets()
		var ops []delta.Op
		diffs = append(diffs, p.ms("delta.diff", func() { ops, err = delta.Diff(eng.Net, next) }))
		if err != nil {
			return fmt.Errorf("flap %d diff: %w", i, err)
		}
		applies = append(applies, p.ms("delta.apply", func() { _, err = eng.Apply(delta.Document{Ops: ops}) }))
		if err != nil {
			return fmt.Errorf("flap %d apply: %w", i, err)
		}
		opsPer = append(opsPer, float64(len(ops)))
	}
	p.m["delta.diff_ms"] = median(diffs)
	p.m["delta.apply_ms"] = median(applies)
	p.m["delta.ops_event"] = median(opsPer)
	js, err := encodeNet(eng.Net)
	if err != nil {
		return err
	}
	p.m["delta.rebuild_ms"] = p.ms("delta.rebuild", func() {
		var rb *netmodel.Network
		if rb, err = netmodel.DecodeJSON(bytes.NewReader(js)); err == nil {
			suite.Run(ctx, rb, core.NewTrace())
		}
	})
	if err != nil {
		return err
	}
	p.m["delta.speedup_ratio"] = p.m["delta.rebuild_ms"] / p.m["delta.apply_ms"]
	return nil
}
