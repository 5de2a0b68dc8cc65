package testkit_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/faults"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// contractRules lists the FIB rules the contract tests read: every
// device's route for another device's subnet or loopback.
func contractRules(net *netmodel.Network) []*netmodel.Rule {
	var out []*netmodel.Rule
	for _, o := range net.Devices {
		for _, p := range append(append([]netip.Prefix(nil), o.Subnets...), o.Loopbacks...) {
			for _, d := range net.Devices {
				if r, ok := net.FIBRuleFor(d.ID, p); ok && d.ID != o.ID && r.Action.Kind == netmodel.ActForward {
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// breakContracts injects, into a network whose class numbering the
// contract tests have built, four kinds of broken route, several of
// each: faults' wrong next hop and null route, a missing route (a
// committed removal), and a route that forwards out an external
// interface beside its first next hop.
func breakContracts(t *testing.T, net *netmodel.Network, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pick := func() *netmodel.Rule {
		rules := contractRules(net)
		return rules[rng.Intn(len(rules))]
	}
	for _, kind := range []faults.Kind{faults.WrongNextHop, faults.NullRoute} {
		injected := 0
		for try := 0; injected < 4 && try < 64; try++ {
			if _, err := faults.Inject(net, pick().ID, kind, rng); err == nil {
				injected++ // a device with no spare interface takes no wrong next hop
			}
		}
		if injected == 0 {
			t.Fatalf("no %v could be injected", kind)
		}
	}
	mut := net.BeginMutation()
	removed := map[netmodel.RuleID]bool{}
	for i := 0; i < 3; i++ {
		if r := pick(); !removed[r.ID] {
			removed[r.ID] = true
			if err := mut.Remove(r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := mut.Commit(); err != nil {
		t.Fatal(err)
	}
	external := 0
	for _, r := range contractRules(net) {
		for _, ifid := range net.Device(r.Device).Ifaces {
			if net.Iface(ifid).Peer == netmodel.NoIface && external < 4 && rng.Intn(4) == 0 {
				net.SetAction(r.ID, netmodel.Action{Kind: netmodel.ActForward,
					OutIfaces: []netmodel.IfaceID{r.Action.OutIfaces[0], ifid}})
				external++
				break
			}
		}
	}
	if external == 0 {
		t.Fatal("no route was sent out an external interface")
	}
}

// sameAsByRule runs the three contract tests, which answer each check
// from the device's class numbering, and the same checks answered rule
// by rule (testkit.RunByRule) on net, and requires equal check counts,
// equal failures in equal order, and equal traces. It returns the
// failures.
func sameAsByRule(t *testing.T, what string, net *netmodel.Network) (failures string) {
	t.Helper()
	for _, test := range []testkit.Test{testkit.InternalRouteCheck{}, testkit.ToRContract{}, testkit.AggCanReachTorLoopback{}} {
		gotTrace, wantTrace := core.NewTrace(), core.NewTrace()
		got := test.Run(net, gotTrace)
		want := testkit.RunByRule(test, net, wantTrace)
		if got.Checks != want.Checks || fmt.Sprint(got.Failures) != fmt.Sprint(want.Failures) {
			t.Fatalf("%s %s: %d checks, failures\n%v\nby rule: %d checks, failures\n%v",
				what, test.Name(), got.Checks, got.Failures, want.Checks, want.Failures)
		}
		if !gotTrace.Equal(wantTrace) {
			t.Fatalf("%s %s: trace differs from the by-rule run's", what, test.Name())
		}
		failures += fmt.Sprint(got.Failures)
	}
	return failures
}

// TestContractCheckEqualsByRule holds the contract tests to the by-rule
// checks on intact networks and on networks broken after the numbering
// was built, and requires the broken ones to fail every way they were
// broken.
func TestContractCheckEqualsByRule(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rg6, err := topogen.BuildRegional(topogen.RegionalOpts{IPv6: true, PodsPerDC: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, net := range map[string]*netmodel.Network{"fattree-k4": ft.Net, "regional": rg.Net, "regional-v6": rg6.Net} {
		t.Run(name, func(t *testing.T) {
			if f := sameAsByRule(t, "intact", net); f != "[][][]" {
				t.Fatalf("intact network fails: %s", f)
			}
			for seed := int64(1); seed <= 3; seed++ {
				broken := net.Clone()
				sameAsByRule(t, "before the faults", broken)
				breakContracts(t, broken, seed)
				f := sameAsByRule(t, fmt.Sprintf("seed %d", seed), broken)
				for _, kind := range []string{"no route for", "does not forward", "uses next hops [-1 "} {
					if !strings.Contains(f, kind) {
						t.Errorf("seed %d: no failure %q among %s", seed, kind, f)
					}
				}
			}
		})
	}
}

// FuzzContractCheck lets the fuzzer pick which routes of a k=4
// fat-tree break, and how.
func FuzzContractCheck(f *testing.F) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		f.Fatal(err)
	}
	testkit.InternalRouteCheck{}.Run(ft.Net, core.Nop{}) // builds the numbering every clone shares
	f.Add(int64(1))
	f.Add(int64(7))
	f.Fuzz(func(t *testing.T, seed int64) {
		net := ft.Net.Clone()
		breakContracts(t, net, seed)
		sameAsByRule(t, fmt.Sprintf("seed %d", seed), net)
	})
}

// BenchmarkContractWarm times the contract tests on a warm regional-m
// network (the benchmark's service network without its ACLs): the
// class-numbering lookup beside the same checks read rule by rule.
func BenchmarkContractWarm(b *testing.B) {
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, test := range []testkit.Test{testkit.InternalRouteCheck{}, testkit.ToRContract{}} {
		for _, body := range []struct {
			name string
			run  func(*netmodel.Network, core.Tracker) testkit.Result
		}{
			{"index", test.Run},
			{"byrule", func(net *netmodel.Network, tr core.Tracker) testkit.Result { return testkit.RunByRule(test, net, tr) }},
		} {
			b.Run(test.Name()+"/"+body.name, func(b *testing.B) {
				tr := core.NewTrace()
				body.run(rg.Net, tr) // warm: numbering built, op cache and trace hold the sets
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body.run(rg.Net, tr)
				}
			})
		}
	}
}
