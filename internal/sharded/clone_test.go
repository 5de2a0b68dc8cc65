package sharded

import (
	"bytes"
	"context"
	"math/rand"
	"net/netip"
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// jsonRebuild replays net through its JSON encoding into a fresh space,
// re-deriving every match set from configuration: the replica factory
// clones replaced, kept as the oracle they are held to.
func jsonRebuild(t testing.TB, net *netmodel.Network) *netmodel.Network {
	t.Helper()
	var buf bytes.Buffer
	if err := net.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := netmodel.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rebuilt
}

// aclRegional is a regional Clos whose spines carry seeded 5-tuple deny
// entries, so match sets and recorded packet sets constrain more than
// the destination address.
func aclRegional(t *testing.T) *netmodel.Network {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 2, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A frozen network accepts no rules: rebuild it rule by rule on a
	// copy of its topology, then add the ACLs.
	n := rg.Net.CloneTopology()
	for _, r := range rg.Net.Rules {
		n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
	}
	rng := rand.New(rand.NewSource(7))
	for _, sp := range rg.Spines {
		for j := 0; j < 6; j++ {
			m := netmodel.MatchAll()
			third := rng.Intn(512) // 198.18.0.0/15 holds 512 /24s
			m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(18 + third/256), byte(third % 256), 0}), 24)
			m.Proto = []int32{6, 17}[rng.Intn(2)]
			lo := uint16(1024 + rng.Intn(60000))
			m.DstPortLo, m.DstPortHi = lo, lo+uint16(rng.Intn(2000))
			n.AddACLRule(sp, m, true)
		}
		n.AddACLRule(sp, netmodel.MatchAll(), false)
	}
	n.ComputeMatchSets()
	return n
}

// TestCloneReplicaEquivalence is the one replica oracle: on every
// topogen family, a clone pool of 1, 2 and 3 workers must merge to the
// trace a sequential run records on the network rebuilt from JSON —
// Trace.Equal once that trace is transferred into the canonical space
// (per-location node identity, the strongest equality the engine
// offers), the same cube-JSON bytes, and the same per-test results. It
// asserts clone ≡ JSON rebuild and Workers=1 ≡ N at once.
func TestCloneReplicaEquivalence(t *testing.T) {
	ctx := context.Background()
	suite := fullSuite(t)
	encode := func(tr *core.Trace) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := tr.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, fam := range []struct {
		name  string
		build func(*testing.T) *netmodel.Network
	}{
		{"example", func(t *testing.T) *netmodel.Network {
			ex, err := topogen.BuildExample(topogen.ExampleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			return ex.Net
		}},
		{"fattree", func(t *testing.T) *netmodel.Network {
			ft, err := topogen.BuildFatTree(4)
			if err != nil {
				t.Fatal(err)
			}
			return ft.Net
		}},
		{"regional", regionalNet},
		{"regional-v6", func(t *testing.T) *netmodel.Network {
			rg, err := topogen.BuildRegional(topogen.RegionalOpts{
				DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
				SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4, IPv6: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return rg.Net
		}},
		{"regional-acl", aclRegional},
	} {
		t.Run(fam.name, func(t *testing.T) {
			canonical := fam.build(t)
			rebuilt := jsonRebuild(t, canonical)
			seq := core.NewTrace()
			seqResults := suite.Run(ctx, rebuilt, seq)
			if st := seq.Stats(); st.Locations == 0 || st.MarkedRules == 0 {
				t.Fatalf("the suite recorded nothing on this family: %+v", st)
			}
			wantJSON := encode(seq)
			want := seq.TransferTo(canonical.Space)

			for _, workers := range []int{1, 2, 3} {
				eng, err := New(ctx, canonical, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(ctx, suite)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(res.Results) != len(seqResults) {
					t.Fatalf("workers=%d: %d results, want %d", workers, len(res.Results), len(seqResults))
				}
				for i := range res.Results {
					got, exp := res.Results[i], seqResults[i]
					if got.Name != exp.Name || got.Status() != exp.Status() || got.Checks != exp.Checks {
						t.Errorf("workers=%d: result %d = %s/%s (%d checks), want %s/%s (%d)",
							workers, i, got.Name, got.Status(), got.Checks, exp.Name, exp.Status(), exp.Checks)
					}
				}
				if !res.Trace.Equal(want) {
					t.Errorf("workers=%d: clone-pool trace differs from the sequential run on the JSON rebuild", workers)
				}
				if !bytes.Equal(encode(res.Trace), wantJSON) {
					t.Errorf("workers=%d: cube JSON of the merged trace differs from the JSON rebuild's", workers)
				}
			}
		})
	}
}

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
