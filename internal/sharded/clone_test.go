package sharded

import (
	"context"
	"testing"
)

// TestCloneReplicaIndependence: worker runs on cloned replicas must not
// disturb the canonical network — its structure stays frozen and its
// space only moves during the merge (which lands on existing nodes when
// the workers' sets already exist canonically).
func TestCloneReplicaIndependence(t *testing.T) {
	ctx := context.Background()
	canonical := regionalNet(t)
	statsBefore := canonical.Stats()

	eng, err := New(ctx, canonical, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if canonical.Stats() != statsBefore {
		t.Fatalf("building a clone pool mutated the canonical network: %+v -> %+v",
			statsBefore, canonical.Stats())
	}
	// Mutating a replica's symbolic state must leave the canonical space
	// untouched (no run in flight, so nothing merges).
	nodesBefore := canonical.Space.EngineStats().Nodes
	rep := eng.replicas[0]
	set := rep.Rules[0].MatchSet()
	for i := 0; i < 8; i++ {
		set = set.Negate().Union(rep.Space.DstPort(uint16(1000 + i)))
	}
	if got := canonical.Space.EngineStats().Nodes; got != nodesBefore {
		t.Fatalf("replica ops grew the canonical space %d -> %d nodes", nodesBefore, got)
	}

	if _, err := eng.Run(ctx, fullSuite(t)); err != nil {
		t.Fatal(err)
	}
	if canonical.Stats() != statsBefore {
		t.Fatalf("a clone-pool run mutated the canonical network: %+v -> %+v",
			statsBefore, canonical.Stats())
	}
}
