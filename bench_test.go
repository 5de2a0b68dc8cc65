// Benchmarks regenerating the paper's evaluation artifacts: one per
// figure (6–9), Figure 9's service-path split (CoverageView), and
// micro-benchmarks for the pieces whose cost the paper discusses
// (MarkPacket, CoveredSets, PathEnumeration, BGPConvergence,
// ProbeGeneration, the v4/v6 AblationFamily).
//
//	go test -bench=. -benchmem
//
// Figure 8's tracked-vs-baseline comparison appears here as paired
// sub-benchmarks (…/tracking=off vs …/tracking=on); Figure 9's metric
// timings as one sub-benchmark per metric. Larger fat-trees than the
// defaults can be driven through cmd/experiments. Recorded performance
// numbers (sharded runs, clones, match sets, deltas, trace codecs,
// end-to-end workloads) come from the bench/ harness, not from here.
package yardstick_test

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"yardstick"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/experiments"
	"yardstick/internal/netmodel"
	"yardstick/internal/probegen"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// Networks are expensive to build; cache them per configuration. The BDD
// caches they carry warm up during the first iterations, which
// b.ResetTimer-guarded warmup runs absorb.
var (
	netMu    sync.Mutex
	fatTrees = map[int]*topogen.FatTree{}
	regional *topogen.Regional
)

func fatTree(b *testing.B, k int) *topogen.FatTree {
	b.Helper()
	netMu.Lock()
	defer netMu.Unlock()
	if ft, ok := fatTrees[k]; ok {
		return ft
	}
	ft, err := topogen.BuildFatTree(k)
	if err != nil {
		b.Fatal(err)
	}
	fatTrees[k] = ft
	return ft
}

func regionalNet(b *testing.B) *topogen.Regional {
	b.Helper()
	netMu.Lock()
	defer netMu.Unlock()
	if regional == nil {
		rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
		if err != nil {
			b.Fatal(err)
		}
		regional = rg
	}
	return regional
}

// BenchmarkFigure6 runs each case-study panel: suite execution plus the
// by-role metric computation.
func BenchmarkFigure6(b *testing.B) {
	rg := regionalNet(b)
	panels := []struct {
		name  string
		suite testkit.Suite
	}{
		{"6a-original", experiments.OriginalSuite()},
		{"6b-internal", testkit.Suite{testkit.InternalRouteCheck{}}},
		{"6c-connected", testkit.Suite{testkit.ConnectedRouteCheck{}}},
		{"6d-final", experiments.FinalSuite()},
	}
	for _, p := range panels {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.Figure6(context.Background(), rg, p.name, p.suite)
			}
		})
	}
}

// BenchmarkFigure7 measures the three suite iterations with aggregate
// metrics.
func BenchmarkFigure7(b *testing.B) {
	rg := regionalNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure7(context.Background(), rg)
	}
}

// BenchmarkFigure8 is the tracking-overhead comparison: each §8 test type
// with tracking off (core.Nop) and on (core.Trace), per fat-tree size.
func BenchmarkFigure8(b *testing.B) {
	for _, k := range []int{4, 8} {
		ft := fatTree(b, k)
		for _, test := range experiments.Figure8Tests() {
			test.Run(ft.Net, core.Nop{}) // warm caches
			b.Run(fmt.Sprintf("%s/k=%d/tracking=off", test.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					test.Run(ft.Net, core.Nop{})
				}
			})
			b.Run(fmt.Sprintf("%s/k=%d/tracking=on", test.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					test.Run(ft.Net, core.NewTrace())
				}
			})
		}
	}
}

// BenchmarkFigure9 times each metric computed from a realistic trace.
func BenchmarkFigure9(b *testing.B) {
	for _, k := range []int{4, 8} {
		ft := fatTree(b, k)
		trace := core.NewTrace()
		for _, test := range experiments.Figure8Tests() {
			test.Run(ft.Net, trace)
		}
		metrics := []struct {
			name string
			f    func(c *core.Coverage)
		}{
			{"device", func(c *core.Coverage) { core.DeviceCoverage(c, nil, core.Fractional) }},
			{"interface", func(c *core.Coverage) { core.InterfaceCoverage(c, nil, core.Fractional) }},
			{"rule", func(c *core.Coverage) { core.RuleCoverage(c, nil, core.Fractional) }},
			{"path", func(c *core.Coverage) {
				core.PathCoverage(context.Background(), c, nil, dataplane.EnumOpts{MaxPaths: 100000}, core.Fractional)
			}},
		}
		for _, m := range metrics {
			b.Run(fmt.Sprintf("%s/k=%d", m.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// A fresh Coverage per iteration so per-rule caches
					// don't turn later iterations into no-ops.
					m.f(core.NewCoverage(ft.Net, trace))
				}
			})
		}
	}
}

// BenchmarkCoverageView is Figure 9's split for the service path: the
// by-role table plus the total row (what GET /coverage computes) from a
// new view, whose every device is dirty; from a view nothing has changed
// under; and, after new packet marks at k devices, from the maintained
// view and from a new one. The networks are the benchmark harness's: the
// regional Clos at its regional-m size and the k=10 fat-tree, each with
// all eight built-in suites in the trace.
func BenchmarkCoverageView(b *testing.B) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8})
	if err != nil {
		b.Fatal(err)
	}
	suite, err := testkit.BuiltinSuite("default,connected,internal,agg,contract,reach,pingmesh,host")
	if err != nil {
		b.Fatal(err)
	}
	for _, nw := range []struct {
		name string
		net  *netmodel.Network
	}{{"regional-m", rg.Net}, {"fattree-k10", fatTree(b, 10).Net}} {
		trace := core.NewTrace()
		suite.Run(context.Background(), nw.net, trace)
		var roles []netmodel.Role
		seen := map[netmodel.Role]bool{}
		for _, d := range nw.net.Devices {
			if !seen[d.Role] {
				seen[d.Role] = true
				roles = append(roles, d.Role)
			}
		}
		table := func(c *core.Coverage) {
			yardstick.ReportByRole(c, roles)
			yardstick.ReportTotal(c, "total")
		}
		b.Run(nw.name+"/from-scratch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table(core.NewCoverage(nw.net, trace))
			}
		})
		view := core.NewCoverage(nw.net, trace)
		table(view)
		b.Run(nw.name+"/clean", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table(view)
			}
		})
		// k devices get packets no test sent, new every iteration, so each
		// mark really moves the set at its location and the intersections
		// with it are new BDD work. The same marks are timed against the
		// maintained view and against a new one.
		marks := uint32(0)
		dirty := func(k int) {
			marks++
			pkts := nw.net.Space.SrcIP(netip.AddrFrom4([4]byte{203, byte(marks >> 16), byte(marks >> 8), byte(marks)}))
			for d := 0; d < k; d++ {
				trace.MarkPacket(dataplane.Injected(netmodel.DeviceID(d*len(nw.net.Devices)/k)), pkts)
			}
		}
		for _, k := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/dirty=%d/view", nw.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dirty(k)
					b.StartTimer()
					table(view)
				}
			})
			b.Run(fmt.Sprintf("%s/dirty=%d/from-scratch", nw.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dirty(k)
					b.StartTimer()
					table(core.NewCoverage(nw.net, trace))
				}
			})
		}
	}
}

// BenchmarkMarkPacket measures the online tracking call itself — the §5.1
// API whose overhead Figure 8 bounds.
func BenchmarkMarkPacket(b *testing.B) {
	ft := fatTree(b, 4)
	trace := core.NewTrace()
	sets := make([]yardstick.Set, 64)
	for i := range sets {
		tor := ft.ToRs[i%len(ft.ToRs)]
		sets[i] = ft.Net.Space.DstPrefix(ft.HostPrefix[tor])
	}
	loc := dataplane.Injected(ft.ToRs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.MarkPacket(loc, sets[i%len(sets)])
	}
}

// BenchmarkCoveredSets measures Algorithm 1 over a full network.
func BenchmarkCoveredSets(b *testing.B) {
	ft := fatTree(b, 8)
	trace := core.NewTrace()
	testkit.ToRReachability{}.Run(ft.Net, trace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.NewCoverage(ft.Net, trace)
		for _, r := range ft.Net.Rules {
			c.Covered(r.ID)
		}
	}
}

// BenchmarkPathEnumeration measures the §5.2 Step 3 DFS on its own.
func BenchmarkPathEnumeration(b *testing.B) {
	ft := fatTree(b, 6)
	starts := dataplane.EdgeStarts(ft.Net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := dataplane.EnumeratePaths(context.Background(), ft.Net, starts, dataplane.EnumOpts{}, func(dataplane.Path) bool { return true })
		if n == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkBGPConvergence measures the control-plane substrate.
func BenchmarkBGPConvergence(b *testing.B) {
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("fattree/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := topogen.BuildFatTree(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFamily compares per-family costs: the same regional
// workload in the 104-bit IPv4 space vs the 296-bit IPv6 space.
func BenchmarkAblationFamily(b *testing.B) {
	opts := topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4}
	for _, v6 := range []bool{false, true} {
		o := opts
		o.IPv6 = v6
		name := "family=v4"
		if v6 {
			name = "family=v6"
		}
		b.Run(name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := topogen.BuildRegional(o); err != nil {
					b.Fatal(err)
				}
			}
		})
		rg, err := topogen.BuildRegional(o)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/suite", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trace := core.NewTrace()
				testkit.Suite{testkit.DefaultRouteCheck{}, testkit.InternalRouteCheck{}}.Run(context.Background(), rg.Net, trace)
				core.RuleCoverage(core.NewCoverage(rg.Net, trace), nil, core.Fractional)
			}
		})
	}
}

// BenchmarkProbeGeneration measures the ATPG-style gap-closing pass.
func BenchmarkProbeGeneration(b *testing.B) {
	ft := fatTree(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probegen.Generate(context.Background(), core.NewCoverage(ft.Net, core.NewTrace()), probegen.Options{})
	}
}
