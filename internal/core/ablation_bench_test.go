package core

import (
	"testing"

	"yardstick/internal/dataplane"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// Ablation benchmarks for the design choices DESIGN.md calls out.
//
// 1. The coverage trace merges overlapping reports on the fly (§5.2:
//    "Yardstick does not keep the entire log and removes overlapping
//    information on the fly"). The alternative — append every report to
//    a log and merge at metric time — is implemented below as logTrace.
//    The benchmarks compare both the marking phase and the end-to-end
//    (mark + first metric) cost.
//
// 2. Covered sets T[r] are computed lazily per rule and cached. The
//    alternative eagerly computes all of them; the benchmark shows the
//    difference when only a small slice of the network is queried
//    (zoom-in usage, §6).

// logTrace is the ablation alternative: a full log of (loc, set) marks,
// merged only when read.
type logTrace struct {
	marks []logMark
	rules map[netmodel.RuleID]bool
}

type logMark struct {
	loc dataplane.Loc
	set hdr.Set
}

func newLogTrace() *logTrace {
	return &logTrace{rules: make(map[netmodel.RuleID]bool)}
}

func (t *logTrace) MarkPacket(loc dataplane.Loc, pkts hdr.Set) {
	if pkts.IsEmpty() {
		return
	}
	t.marks = append(t.marks, logMark{loc, pkts})
}

// MarkConcrete logs each ping's singleton at every hop: until the log
// is merged there is no set to test a packet against.
func (t *logTrace) MarkConcrete(sp *hdr.Space, pings []Ping) {
	for _, p := range pings {
		single := sp.Singleton(p.Packet)
		for _, h := range p.Hops {
			t.MarkPacket(h.Loc, single)
		}
	}
}

func (t *logTrace) MarkRule(r netmodel.RuleID) { t.rules[r] = true }

// toTrace merges the log into a canonical Trace (the deferred work).
func (t *logTrace) toTrace() *Trace {
	out := NewTrace()
	for _, m := range t.marks {
		out.MarkPacket(m.loc, m.set)
	}
	for r := range t.rules {
		out.MarkRule(r)
	}
	return out
}

// repeatedMarks simulates a redundant test suite: every ToR prefix is
// marked at every device reps times (tests heavily overlap in practice —
// pingmesh and reachability both walk the same spine rules).
func repeatedMarks(ft *topogen.FatTree, tracker Tracker, reps int) {
	for i := 0; i < reps; i++ {
		for _, tor := range ft.ToRs {
			set := ft.Net.Space.DstPrefix(ft.HostPrefix[tor])
			for _, d := range ft.Net.Devices {
				tracker.MarkPacket(dataplane.Injected(d.ID), set)
			}
		}
	}
}

func BenchmarkAblationTraceMergeOnline(b *testing.B) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("merge=online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := NewTrace()
			repeatedMarks(ft, tr, 3)
		}
	})
	b.Run("merge=log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := newLogTrace()
			repeatedMarks(ft, tr, 3)
		}
	})
}

func BenchmarkAblationTraceMergeEndToEnd(b *testing.B) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("merge=online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := NewTrace()
			repeatedMarks(ft, tr, 3)
			c := NewCoverage(ft.Net, tr)
			RuleCoverage(c, nil, Fractional)
		}
	})
	b.Run("merge=log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := newLogTrace()
			repeatedMarks(ft, tr, 3)
			c := NewCoverage(ft.Net, tr.toTrace())
			RuleCoverage(c, nil, Fractional)
		}
	})
}

func BenchmarkAblationLazyCoveredSets(b *testing.B) {
	ft, err := topogen.BuildFatTree(6)
	if err != nil {
		b.Fatal(err)
	}
	tr := NewTrace()
	repeatedMarks(ft, tr, 1)
	// Zoom-in query: rule coverage of a single ToR.
	target := RulesOfDevices(ft.Net, []netmodel.DeviceID{ft.ToRs[0]})
	b.Run("covered=lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewCoverage(ft.Net, tr)
			RuleCoverage(c, target, Fractional)
		}
	})
	b.Run("covered=eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewCoverage(ft.Net, tr)
			for _, r := range ft.Net.Rules {
				c.Covered(r.ID) // Algorithm 1 over the whole network
			}
			RuleCoverage(c, target, Fractional)
		}
	})
}
