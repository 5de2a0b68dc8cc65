package netmodel

import (
	"context"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/hdr"
)

// TestCloneCarriesMatchSets: a frozen network clones into a frozen
// network whose match sets sit at the same node indices — carried by
// index, not re-derived.
func TestCloneCarriesMatchSets(t *testing.T) {
	n, dev, rules := buildLPMFib(t)
	n.AddDevice("extra", RoleAgg, 7) // exercise byName copy
	c := n.Clone()

	if !c.MatchSetsComputed() {
		t.Fatal("clone lost matchSetsDone")
	}
	if c.Space == n.Space || c.Space.Manager() == n.Space.Manager() {
		t.Fatal("clone shares the original's space")
	}
	if c.Stats() != n.Stats() {
		t.Fatalf("clone stats %+v != original %+v", c.Stats(), n.Stats())
	}
	opsBefore := c.Space.EngineStats().Ops
	for _, id := range rules {
		want := n.Rules[id].MatchSet()
		got := c.Rules[id].MatchSet()
		if got.Space() != c.Space {
			t.Fatalf("rule %d match set not re-pointed to the clone's space", id)
		}
		if got.Node() != want.Node() {
			t.Fatalf("rule %d match set at node %d in clone, %d in original", id, got.Node(), want.Node())
		}
	}
	if ops := c.Space.EngineStats().Ops - opsBefore; ops != 0 {
		t.Fatalf("reading carried match sets charged %d ops (re-derived?)", ops)
	}
	// The FIB index resolves in the clone.
	r, ok := c.FIBRuleFor(dev, p(t, "10.0.0.0/8"))
	if !ok || r.ID != rules[1] {
		t.Fatalf("clone FIBRuleFor = %v, %v", r, ok)
	}
	if _, ok := c.DeviceByName("extra"); !ok {
		t.Fatal("clone lost device name index")
	}
}

// TestCloneIndependentState: structural and symbolic mutations on either
// side stay invisible to the other.
func TestCloneIndependentState(t *testing.T) {
	n, dev, rules := buildLPMFib(t)
	c := n.Clone()

	// Mutate clone structures: device tables, interface wiring, actions.
	c.Devices[dev].FIB = c.Devices[dev].FIB[:1]
	c.Ifaces[0].Name = "renamed"
	c.Rules[rules[0]].Action.OutIfaces[0] = 99
	if len(n.Devices[dev].FIB) != len(rules) {
		t.Fatal("truncating clone FIB truncated original")
	}
	if n.Ifaces[0].Name == "renamed" {
		t.Fatal("renaming clone iface renamed original")
	}
	if n.Rules[rules[0]].Action.OutIfaces[0] == 99 {
		t.Fatal("clone action slice aliases original")
	}

	// Symbolic growth in the clone must not grow the canonical space.
	sizeBefore := n.Space.EngineStats().Nodes
	set := c.Rules[rules[1]].MatchSet()
	for i := 0; i < 8; i++ {
		set = set.Negate().Union(c.Space.Proto(uint8(i)))
	}
	if got := n.Space.EngineStats().Nodes; got != sizeBefore {
		t.Fatalf("clone ops grew canonical space %d -> %d nodes", sizeBefore, got)
	}

	// A watched context is not carried: the clone of a network whose
	// space watches a cancelled context works on past a poll.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer n.Space.WatchContext(ctx)()
	c2 := n.Clone()
	if err := bdd.Guard(func() {
		for i := 0; i < 1024; i++ {
			c2.Space.DstPort(uint16(i))
		}
	}); err != nil {
		t.Fatalf("clone of a cancelled network inherited its context: %v", err)
	}
}

// TestCloneUnfrozenNetwork: cloning before ComputeMatchSets yields an
// unfrozen copy that can be frozen independently.
func TestCloneUnfrozenNetwork(t *testing.T) {
	n := New()
	d := n.AddDevice("r", RoleToR, 1)
	out := n.AddIface(d, "up")
	act := Action{Kind: ActForward, OutIfaces: []IfaceID{out}}
	n.AddFIBRule(d, MatchDst(p(t, "0.0.0.0/0")), act, OriginDefault)

	c := n.Clone()
	if c.MatchSetsComputed() {
		t.Fatal("unfrozen network cloned frozen")
	}
	rid := c.AddFIBRule(d, MatchDst(p(t, "10.0.0.0/8")), act, OriginInternal)
	c.ComputeMatchSets()
	if !c.Rules[rid].MatchSet().Equal(c.Space.DstPrefix(p(t, "10.0.0.0/8"))) {
		t.Fatal("clone-added rule has wrong match set")
	}
	if n.MatchSetsComputed() || len(n.Rules) != 1 {
		t.Fatal("freezing the clone leaked into the original")
	}
}

// TestCloneTransferSession: moving several sets between a clone pair via
// one hdr.Transfer lands them on the original indices (shared prefix).
func TestCloneTransferSession(t *testing.T) {
	n, _, rules := buildLPMFib(t)
	c := n.Clone()
	// Grow the clone so the transfer has fresh material too.
	fresh := c.Rules[rules[2]].MatchSet().Union(c.Space.DstPort(443))

	tr := hdr.NewTransfer(c.Space, n.Space)
	for _, id := range rules {
		moved := tr.Move(c.Rules[id].MatchSet())
		if moved.Node() != n.Rules[id].MatchSet().Node() {
			t.Fatalf("rule %d moved to node %d, want %d", id, moved.Node(), n.Rules[id].MatchSet().Node())
		}
	}
	movedFresh := tr.Move(fresh)
	want := n.Rules[rules[2]].MatchSet().Union(n.Space.DstPort(443))
	if !movedFresh.Equal(want) {
		t.Fatal("fresh set transferred incorrectly")
	}
}
