package core_test

import (
	"context"
	"errors"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/faults"
	"yardstick/internal/hdr"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

// pingRecorder keeps the pings a concrete test reports and marks
// nothing.
type pingRecorder struct {
	core.Nop
	pings []core.Ping
}

func (r *pingRecorder) MarkConcrete(_ *hdr.Space, pings []core.Ping) {
	r.pings = append(r.pings, pings...)
}

// TestMarkConcreteCancelledPerLocation: a pingmesh's batch cut by a
// cancellation at any op leaves each location either as it was or at
// its full set, never between: not at its new packets alone, which a
// cut in the union with what it held would expose. Each cut runs on a
// fresh clone of the network's space, over a trace where every location
// the pings cross already holds one ToR's prefix, so most locations take
// a union and some pings are held at some hops.
func TestMarkConcreteCancelledPerLocation(t *testing.T) {
	ft, err := topogen.BuildFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	var rec pingRecorder
	testkit.ToRPingmesh{}.Run(ft.Net, &rec)
	var locs []dataplane.Loc
	seen := map[dataplane.Loc]bool{}
	for _, p := range rec.pings {
		for _, h := range p.Hops {
			if !seen[h.Loc] {
				seen[h.Loc] = true
				locs = append(locs, h.Loc)
			}
		}
	}
	seed := func(sp *hdr.Space) *core.Trace {
		tr := core.NewTrace()
		for i, l := range locs {
			tr.MarkPacket(l, sp.DstPrefix(ft.HostPrefix[ft.ToRs[i%len(ft.ToRs)]]))
		}
		return tr
	}
	total := func() int {
		sp := ft.Net.Space.Clone()
		tr := seed(sp)
		ops := sp.EngineStats().Ops
		tr.MarkConcrete(sp, rec.pings)
		return int(sp.EngineStats().Ops - ops)
	}()
	var sawMixed bool
	for k := 0; k < total; k += max(1, total/100) {
		sp := ft.Net.Space.Clone()
		cut := seed(sp)
		restore := sp.WatchContext(faults.CancelAtOp(sp.Manager(), k))
		err := bdd.Guard(func() { cut.MarkConcrete(sp, rec.pings) })
		restore()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut at op %d of %d: err = %v, want context.Canceled", k, total, err)
		}
		before, full := seed(sp), seed(sp)
		full.MarkConcrete(sp, rec.pings)
		var marked, unmarked int
		for _, l := range full.Locations() {
			got, was, want := cut.PacketsAt(sp, l), before.PacketsAt(sp, l), full.PacketsAt(sp, l)
			switch {
			case was.Equal(want):
			case got.Equal(want):
				marked++
			case got.Equal(was):
				unmarked++
			default:
				t.Fatalf("cut at op %d of %d: %+v holds neither its set before the batch nor its full set", k, total, l)
			}
		}
		sawMixed = sawMixed || marked > 0 && unmarked > 0
	}
	if !sawMixed {
		t.Errorf("no cut in %d ops fell between two locations' marks", total)
	}
}
