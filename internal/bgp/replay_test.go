package bgp_test

import (
	"bytes"
	"net/netip"
	"testing"

	"yardstick/internal/bgp"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

var regionalM = topogen.RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8} // the benchmark's regional-m

func encode(t testing.TB, n *netmodel.Network) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := n.EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func regionalConfig(t testing.TB, opts topogen.RegionalOpts) (*topogen.Regional, bgp.Config) {
	t.Helper()
	rg, err := topogen.BuildRegional(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rg, bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export}
}

// TestReplayMatchesFreshRun checks that Replay.Build, which re-converges
// only the toggled prefixes, equals a fresh Run of the originations
// announced at that point, compared as EncodeJSON bytes after every event.
// The stream is a GenFlaps stream followed by withdrawing every one of
// the hubs' default-route originations (so that the multi-origin prefix
// is gone entirely) and announcing them again.
func TestReplayMatchesFreshRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts topogen.RegionalOpts
	}{
		{"regional", topogen.RegionalOpts{}},
		{"regional-m", regionalM},
		{"regional-v6", topogen.RegionalOpts{IPv6: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rg, cfg := regionalConfig(t, tc.opts)
			events := bgp.GenFlaps(3, 40, len(cfg.Origins))
			up := make([]bool, len(cfg.Origins))
			for i := range up {
				up[i] = true
			}
			for _, ev := range events {
				up[ev.Origin] = ev.Up
			}
			var defaults []int
			for i, o := range cfg.Origins {
				if o.Prefix.Bits() == 0 {
					defaults = append(defaults, i)
				}
			}
			if len(defaults) < 2 {
				t.Fatalf("%d default-route originations, want several", len(defaults))
			}
			for _, o := range defaults {
				if up[o] {
					events = append(events, bgp.FlapEvent{Origin: o, Up: false})
				}
			}
			for _, o := range defaults {
				events = append(events, bgp.FlapEvent{Origin: o, Up: true})
			}

			replay := bgp.NewReplay(cfg)
			for i := range up {
				up[i] = true
			}
			defaultGone := false
			for i, ev := range events {
				if err := replay.Toggle(ev); err != nil {
					t.Fatal(err)
				}
				up[ev.Origin] = ev.Up
				built, err := replay.Build()
				if err != nil {
					t.Fatal(err)
				}
				fresh := cfg
				fresh.Net, fresh.Origins = rg.Net.CloneTopology(), nil
				for o, announced := range up {
					if announced {
						fresh.Origins = append(fresh.Origins, cfg.Origins[o])
					}
				}
				if _, err := bgp.Run(fresh); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encode(t, built), encode(t, fresh.Net)) {
					t.Fatalf("event %d %+v: Replay.Build differs from a fresh Run", i, ev)
				}
				gone := true
				for _, o := range defaults {
					gone = gone && !up[o]
				}
				defaultGone = defaultGone || gone
			}
			if !defaultGone {
				t.Fatal("the stream never withdrew every default-route origination at once")
			}
		})
	}
}

// fatTreeConfig rebuilds the control-plane inputs of a k-ary fat-tree
// (BuildFatTree keeps only the converged network): each ToR's host
// prefix, every loopback, and static defaults pointing one layer up. It
// checks that Run reproduces the generated network.
func fatTreeConfig(b *testing.B, k int) bgp.Config {
	ft, err := topogen.BuildFatTree(k)
	if err != nil {
		b.Fatal(err)
	}
	n := ft.Net
	cfg := bgp.Config{Net: n.CloneTopology()}
	for _, t := range ft.ToRs {
		cfg.Origins = append(cfg.Origins, bgp.Origination{Device: t, Prefix: ft.HostPrefix[t], Origin: netmodel.OriginInternal, EdgeIface: ft.HostIface[t]})
	}
	for _, d := range n.Devices {
		cfg.Origins = append(cfg.Origins, bgp.Origination{Device: d.ID, Prefix: d.Loopbacks[0], Origin: netmodel.OriginInternal, EdgeIface: netmodel.NoIface})
	}
	up := map[netmodel.Role]netmodel.Role{netmodel.RoleToR: netmodel.RoleAgg, netmodel.RoleAgg: netmodel.RoleCore}
	for _, d := range n.Devices {
		st := bgp.StaticRoute{Device: d.ID, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Origin: netmodel.OriginDefault}
		for _, nb := range n.Neighbors(d.ID) {
			if role, ok := up[d.Role]; ok && n.Device(nb).Role == role {
				st.NextHops = append(st.NextHops, nb)
			}
		}
		if st.NextHops != nil {
			cfg.Statics = append(cfg.Statics, st)
		}
	}
	check := cfg
	check.Net = n.CloneTopology()
	if _, err := bgp.Run(check); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(encode(b, check.Net), encode(b, n)) {
		b.Fatal("the rebuilt fat-tree configuration does not reproduce BuildFatTree's network")
	}
	return cfg
}

// BenchmarkRun times one convergence of a whole network, into a fresh
// clone of its topology each iteration (the clone is not timed).
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  func(b *testing.B) bgp.Config
	}{
		{"fattree-8", func(b *testing.B) bgp.Config { return fatTreeConfig(b, 8) }},
		{"regional-m", func(b *testing.B) bgp.Config { _, cfg := regionalConfig(b, regionalM); return cfg }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg(b)
			topo := cfg.Net
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg.Net = topo.CloneTopology()
				b.StartTimer()
				if _, err := bgp.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayBuild times one flap of a regional-m churn stream: the
// toggle and the Build that re-converges its prefix into a fresh clone.
func BenchmarkReplayBuild(b *testing.B) {
	_, cfg := regionalConfig(b, regionalM)
	replay := bgp.NewReplay(cfg)
	if _, err := replay.Build(); err != nil { // converge every prefix once
		b.Fatal(err)
	}
	events := bgp.GenFlaps(1, 1000, len(cfg.Origins))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := replay.Toggle(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
		if _, err := replay.Build(); err != nil {
			b.Fatalf("flap %d: %v", i, err)
		}
	}
}
