// Package probegen generates concrete test probes that cover untested
// forwarding rules — the ATPG idea (Zeng et al., CoNEXT 2012) the paper
// cites as complementary: where Yardstick measures what a suite misses,
// probegen turns the uncovered set into new tests.
//
// Generation walks the path universe (the same §5.2 Step 3 exploration
// coverage computation uses): for every path whose rule sequence contains
// an uncovered rule, concrete packets are sampled from the path's guard
// and *verified* by traceroute — a real packet takes one ECMP branch, so
// samples are retried with varied flow hashes until the probe actually
// exercises an uncovered rule. Each emitted probe records the rules its
// verified trajectory covers and its observed disposition, so it converts
// directly into a passing end-to-end concrete test.
package probegen

import (
	"context"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
)

// Probe is one generated, verified end-to-end concrete test.
type Probe struct {
	Start  dataplane.Loc
	Packet hdr.Packet
	// Covers lists the previously-uncovered rules the probe's verified
	// trajectory exercises.
	Covers []netmodel.RuleID
	// End is the observed terminal disposition (the probe's test
	// expectation).
	End dataplane.TraceEnd
	// LastDevice is the device at the final hop.
	LastDevice netmodel.DeviceID
}

// samplesPerPath bounds ECMP-hash retries per candidate path.
const samplesPerPath = 8

// Options bounds generation. Probes are injected at the edge
// (dataplane.EdgeStarts).
type Options struct {
	// MaxProbes stops after this many probes (0 = unlimited).
	MaxProbes int
	// MaxPaths bounds the underlying path exploration (0 = unlimited).
	MaxPaths int
	// Rules restricts the targets (nil = every uncovered rule).
	Rules []netmodel.RuleID
}

// Result is the outcome of a generation run.
type Result struct {
	Probes []Probe
	// Uncoverable lists target rules no verified probe reached after a
	// *complete* exploration — rules only local tests (or state
	// inspection) can exercise from the edge injection points. Empty
	// when Complete is false (a budget cut generation short, so the
	// remaining targets may still be reachable); see Remaining.
	Uncoverable []netmodel.RuleID
	// Remaining counts targets not yet covered when a budget stopped
	// generation early.
	Remaining int
	// Complete is false when a budget cut exploration short.
	Complete bool
}

// Generate computes verified probes covering the rules the coverage
// trace has not touched. Cancelling ctx stops the underlying path
// exploration; the partial result then reports Complete=false.
func Generate(ctx context.Context, cov *core.Coverage, opts Options) *Result {
	net := cov.Net
	targets := make(map[netmodel.RuleID]bool)
	for _, rid := range core.UncoveredRules(cov, opts.Rules) {
		targets[rid] = true
	}
	res := &Result{Complete: true}
	if len(targets) == 0 {
		return res
	}

	sp := net.Space
	_, complete := dataplane.EnumeratePaths(ctx, net, dataplane.EdgeStarts(net),
		dataplane.EnumOpts{MaxPaths: opts.MaxPaths},
		func(p dataplane.Path) bool {
			if p.Guard.IsEmpty() || p.End == dataplane.PathLoop {
				return true
			}
			wanted := false
			for _, rid := range p.Rules {
				if targets[rid] {
					wanted = true
					break
				}
			}
			if !wanted {
				return true
			}
			// Sample packets with varied flow hashes until the concrete
			// trajectory exercises a target (ECMP may route a sample
			// down a different branch than this path).
			for attempt := 0; attempt < samplesPerPath; attempt++ {
				cand := p.Guard.Intersect(sp.SrcPort(uint16(1031 + 977*attempt)))
				if cand.IsEmpty() {
					cand = p.Guard
				}
				pkt, ok := cand.Sample()
				if !ok {
					break
				}
				tr := dataplane.Traceroute(net, p.Start, pkt)
				var covers []netmodel.RuleID
				for _, hop := range tr.Hops {
					if hop.Rule >= 0 && targets[hop.Rule] {
						covers = append(covers, hop.Rule)
					}
				}
				if len(covers) == 0 {
					continue
				}
				for _, rid := range covers {
					delete(targets, rid)
				}
				last := p.Start.Device
				if len(tr.Hops) > 0 {
					last = tr.Hops[len(tr.Hops)-1].Loc.Device
				}
				res.Probes = append(res.Probes, Probe{
					Start:      p.Start,
					Packet:     pkt,
					Covers:     covers,
					End:        tr.End,
					LastDevice: last,
				})
				break
			}
			if opts.MaxProbes > 0 && len(res.Probes) >= opts.MaxProbes {
				res.Complete = false
				return false
			}
			return len(targets) > 0
		})
	if !complete {
		res.Complete = false
	}
	if res.Complete {
		for rid := range targets {
			res.Uncoverable = append(res.Uncoverable, rid)
		}
		sortRules(res.Uncoverable)
	} else {
		res.Remaining = len(targets)
	}
	return res
}

// AsTests converts probes into runnable end-to-end concrete tests whose
// expectations are the verified dispositions. Running them through a
// tracker covers the probes' rules.
func (r *Result) AsTests() testkit.Suite {
	var suite testkit.Suite
	for _, p := range r.Probes {
		suite = append(suite, testkit.PingTest{
			TestName:   "GeneratedProbe",
			From:       p.Start.Device,
			Packet:     p.Packet,
			WantEnd:    p.End,
			WantDevice: p.LastDevice,
		})
	}
	return suite
}

func sortRules(s []netmodel.RuleID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
