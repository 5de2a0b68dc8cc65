// Outage walks through the paper's §2 motivating example on the Figure 1
// data-center network: a latent null-routed default on border B2 survives
// a test suite that checks every connectivity invariant the engineers
// thought of, device coverage says everything is fine — and rule coverage
// flags the gap before the B1 failure turns it into an outage.
//
//	go run ./examples/outage
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"net/netip"
	"slices"

	"yardstick"
)

func main() {
	ctx := context.Background()
	// The Figure 1 network, with the bug: B2's default route is a
	// null-routed static, so B2 never propagates the default to spines.
	ex, err := yardstick.BuildExample(yardstick.ExampleOpts{BugNullRoute: true})
	if err != nil {
		log.Fatal(err)
	}
	net := ex.Net

	// The three §2 tests: leaf-to-leaf, leaf-to-WAN, border-to-leaf.
	public := net.Space.DstPrefix(netip.MustParsePrefix("93.0.0.0/8"))
	var suite yardstick.Suite
	for _, l := range ex.Leaves {
		for _, l2 := range ex.Leaves {
			if l != l2 {
				suite = append(suite, yardstick.ReachabilityTest{
					TestName: "LeafToLeaf", From: l,
					Pkts:       net.Space.DstPrefix(ex.LeafPrefix[l2]),
					WantEgress: []yardstick.IfaceID{ex.LeafIface[l2]},
					Waypoint:   -1,
				})
			}
		}
		suite = append(suite, yardstick.ReachabilityTest{
			TestName: "LeafToWAN", From: l, Pkts: public,
			WantEgress: nil, // egress location depends on ECMP; assert nothing here
			Waypoint:   -1,
		})
	}
	for _, b := range ex.Borders {
		for _, l := range ex.Leaves {
			suite = append(suite, yardstick.ReachabilityTest{
				TestName: "BorderToLeaf", From: b,
				Pkts:       net.Space.DstPrefix(ex.LeafPrefix[l]),
				WantEgress: []yardstick.IfaceID{ex.LeafIface[l]},
				Waypoint:   -1,
			})
		}
	}

	trace := yardstick.NewTrace()
	pass := true
	for _, res := range suite.Run(ctx, net, trace) {
		if !res.Pass() {
			pass = false
		}
	}
	fmt.Printf("connectivity suite: %d tests, all pass = %v\n", len(suite), pass)
	fmt.Println("the engineers believe they have all their bases covered...")

	// Coverage tells a different story.
	cov := yardstick.NewCoverage(net, trace)
	b1, _ := net.DeviceByName("b1")
	b2, _ := net.DeviceByName("b2")
	fmt.Println("\ncoverage report:")
	fmt.Printf("  device coverage (fractional): %.0f%% — every device is traversed by some test\n",
		100*yardstick.DeviceCoverage(cov, nil, yardstick.Fractional))
	b1Rule := yardstick.RuleCoverage(cov, yardstick.RulesOfDevices(net, []yardstick.DeviceID{b1.ID}), yardstick.Fractional)
	b2Rule := yardstick.RuleCoverage(cov, yardstick.RulesOfDevices(net, []yardstick.DeviceID{b2.ID}), yardstick.Fractional)
	fmt.Printf("  rule coverage on B1: %.0f%%\n", 100*b1Rule)
	fmt.Printf("  rule coverage on B2: %.0f%%  <-- lower than its symmetric twin!\n", 100*b2Rule)

	fmt.Println("\nuncovered rules on B2:")
	uncovered := yardstick.UncoveredByOrigin(cov, yardstick.RulesOfDevices(net, []yardstick.DeviceID{b2.ID}))
	for _, origin := range sortedKeys(uncovered) {
		fmt.Printf("  %-10s %d\n", origin, uncovered[origin])
	}
	fmt.Println("no test packet ever uses B2's default route — exactly the rule that is null-routed.")

	// What would have happened without the warning: B1 fails.
	broken, err := yardstick.BuildExample(yardstick.ExampleOpts{BugNullRoute: true, OmitB1: true})
	if err != nil {
		log.Fatal(err)
	}
	r, err := yardstick.Reach(broken.Net, yardstick.Injected(broken.Leaves[0]),
		broken.Net.Space.DstPrefix(netip.MustParsePrefix("93.0.0.0/8")), yardstick.ReachOpts{})
	if err != nil {
		log.Fatal(err)
	}
	egressed := 0
	for range r.Egressed {
		egressed++
	}
	fmt.Printf("\nafter B1 fails: WAN-bound traffic egresses via %d interfaces (the outage: whole DC cut off)\n", egressed)

	// The fix suggested by coverage: also check the forwarding state
	// directly. DefaultRouteCheck catches the null route immediately.
	res := yardstick.DefaultRouteCheck{}.Run(net, yardstick.NewTrace())
	fmt.Printf("\nadding DefaultRouteCheck: pass = %v\n", res.Pass())
	for _, f := range res.Failures {
		fmt.Printf("  %s: %s\n", net.Device(f.Device).Name, f.Detail)
	}
}

// sortedKeys returns m's keys in ascending order, so a breakdown prints
// the same on every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
