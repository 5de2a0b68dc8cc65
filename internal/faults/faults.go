// Package faults injects forwarding-state bugs into built networks —
// the mutation-testing analogue the software coverage literature uses to
// validate that coverage correlates with bug-finding ability, and the
// mechanism behind this repository's "higher coverage finds more bugs"
// experiment (the paper's §2/§7 motivation: coverage increases "the
// probability of uncovering more bugs").
//
// All operators mutate rule *actions*, never match fields, so the
// disjoint match sets computed at build time remain valid and faults can
// be injected into (and reverted from) frozen networks. They write
// through netmodel.Network.SetAction, which drops the device's action
// classes so the next flood sees the fault.
package faults

import (
	"fmt"
	"math/rand"

	"yardstick/internal/netmodel"
)

// Kind enumerates the fault operators.
type Kind uint8

// Fault operators.
const (
	// NullRoute turns a forwarding rule into a drop — the §2 bug.
	NullRoute Kind = iota
	// WrongNextHop rewires a forwarding rule to a different local
	// interface.
	WrongNextHop
	// ECMPMember removes one member from a multi-way ECMP group.
	ECMPMember
)

func (k Kind) String() string {
	switch k {
	case NullRoute:
		return "null-route"
	case WrongNextHop:
		return "wrong-next-hop"
	case ECMPMember:
		return "ecmp-member-missing"
	}
	return "unknown"
}

// Fault is one injected bug, revertible via Revert.
type Fault struct {
	Kind   Kind
	Rule   netmodel.RuleID
	Device netmodel.DeviceID

	prev netmodel.Action
	net  *netmodel.Network
}

// String describes the fault for reports.
func (f *Fault) String() string {
	return fmt.Sprintf("%s on rule %d (%s, %v)",
		f.Kind, f.Rule, f.net.Device(f.Device).Name, f.net.Rule(f.Rule).Match.DstPrefix)
}

// Revert restores the rule's original action.
func (f *Fault) Revert() {
	f.net.SetAction(f.Rule, f.prev)
}

// eligible reports whether a rule can host the fault kind.
func eligible(r *netmodel.Rule, kind Kind) bool {
	if r.Table != netmodel.TableFIB || r.Action.Kind != netmodel.ActForward {
		return false
	}
	switch kind {
	case ECMPMember:
		return len(r.Action.OutIfaces) >= 2
	case WrongNextHop:
		return true
	case NullRoute:
		return true
	}
	return false
}

// Inject applies the fault kind to the given rule. It returns an error
// when the rule cannot host the fault.
func Inject(net *netmodel.Network, rid netmodel.RuleID, kind Kind, rng *rand.Rand) (*Fault, error) {
	r := net.Rule(rid)
	if !eligible(r, kind) {
		return nil, fmt.Errorf("faults: rule %d cannot host %v", rid, kind)
	}
	f := &Fault{Kind: kind, Rule: rid, Device: r.Device, prev: r.Action.Clone(), net: net}
	switch kind {
	case NullRoute:
		net.SetAction(rid, netmodel.Action{Kind: netmodel.ActDrop})
	case WrongNextHop:
		// Pick a different interface on the same device; fall back to a
		// drop when the device has no alternative port.
		d := net.Device(r.Device)
		var candidates []netmodel.IfaceID
		current := map[netmodel.IfaceID]bool{}
		for _, ifid := range r.Action.OutIfaces {
			current[ifid] = true
		}
		for _, ifid := range d.Ifaces {
			if !current[ifid] {
				candidates = append(candidates, ifid)
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("faults: device %s has no alternative interface", d.Name)
		}
		net.SetAction(rid, netmodel.Action{
			Kind:      netmodel.ActForward,
			OutIfaces: []netmodel.IfaceID{candidates[rng.Intn(len(candidates))]},
		})
	case ECMPMember:
		outs := append([]netmodel.IfaceID(nil), r.Action.OutIfaces...)
		i := rng.Intn(len(outs))
		outs = append(outs[:i], outs[i+1:]...)
		net.SetAction(rid, netmodel.Action{Kind: netmodel.ActForward, OutIfaces: outs, Transform: r.Action.Transform})
	}
	return f, nil
}

// InjectRandom injects one random fault of a random kind into a random
// eligible rule, optionally restricted by keep.
func InjectRandom(net *netmodel.Network, rng *rand.Rand, keep func(*netmodel.Rule) bool) (*Fault, error) {
	kinds := []Kind{NullRoute, WrongNextHop, ECMPMember}
	// Collect eligible (rule, kind) pairs lazily: sample with retries.
	var candidates []netmodel.RuleID
	for _, r := range net.Rules {
		if keep != nil && !keep(r) {
			continue
		}
		if eligible(r, WrongNextHop) { // broadest eligibility
			candidates = append(candidates, r.ID)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("faults: no eligible rules")
	}
	for attempt := 0; attempt < 64; attempt++ {
		rid := candidates[rng.Intn(len(candidates))]
		kind := kinds[rng.Intn(len(kinds))]
		f, err := Inject(net, rid, kind, rng)
		if err == nil {
			return f, nil
		}
	}
	// Fall back to a guaranteed-eligible null route.
	return Inject(net, candidates[rng.Intn(len(candidates))], NullRoute, rng)
}

// Campaign injects n faults one at a time (reverting each before the
// next) and reports, per fault, whether each provided detector caught
// it. A detector is typically "run test suite X and return !pass".
type CampaignResult struct {
	Faults   []string
	Detected [][]bool // [fault][detector]
	Totals   []int    // per detector
}

// Run executes a mutation campaign: for each of n random faults, inject,
// run every detector, revert. Detectors must not mutate the network.
func Run(net *netmodel.Network, rng *rand.Rand, n int,
	keep func(*netmodel.Rule) bool, detectors ...func() bool) (*CampaignResult, error) {
	res := &CampaignResult{Totals: make([]int, len(detectors))}
	for i := 0; i < n; i++ {
		f, err := InjectRandom(net, rng, keep)
		if err != nil {
			return nil, err
		}
		row := make([]bool, len(detectors))
		for j, det := range detectors {
			if det() {
				row[j] = true
				res.Totals[j]++
			}
		}
		res.Faults = append(res.Faults, f.String())
		res.Detected = append(res.Detected, row)
		f.Revert()
	}
	return res, nil
}
