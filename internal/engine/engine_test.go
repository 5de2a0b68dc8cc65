package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/dataplane"
	"yardstick/internal/delta"
	"yardstick/internal/faults"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

var bg = context.Background()

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	return ctx
}

func regional(t testing.TB) *netmodel.Network {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 2, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rg.Net
}

func suiteOf(t testing.TB, names string) testkit.Suite {
	t.Helper()
	s, err := testkit.BuiltinSuite(names)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// jsonRebuild is the oracle network: net's JSON decoded into a fresh BDD
// space, every match set derived again.
func jsonRebuild(t testing.TB, net *netmodel.Network) *netmodel.Network {
	t.Helper()
	var buf bytes.Buffer
	// A clone carries no encoding cache: the rebuild, and so the
	// fingerprint it is held to, comes from the rules' fields.
	if err := net.Clone().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rb, err := netmodel.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

func tableOf(t testing.TB, e *Engine) string {
	t.Helper()
	rows, err := e.Table(bg, "", e.Net().Roles(), "TOTAL")
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	var buf bytes.Buffer
	report.RenderTable(&buf, rows)
	report.RenderGaps(&buf, report.Gaps(e.Coverage()))
	return buf.String()
}

// assertRebuildEquivalent holds e to the correctness bar: its table and
// gap report byte-match those of an engine over the JSON rebuild of its
// network with its trace transferred there, the transfer round-trips
// exactly, and its cached fingerprint is the rebuild's.
func assertRebuildEquivalent(t testing.TB, e *Engine) {
	t.Helper()
	rb := New(jsonRebuild(t, e.Net()), Config{})
	moved := e.Trace().TransferTo(rb.Net().Space)
	if err := rb.MergeTrace(bg, moved); err != nil {
		t.Fatal(err)
	}
	if got, want := tableOf(t, e), tableOf(t, rb); got != want {
		t.Errorf("table differs from the JSON rebuild's:\n%s\nwant:\n%s", got, want)
	}
	if !moved.TransferTo(e.Net().Space).Equal(e.Trace()) {
		t.Error("trace does not survive the round trip through the rebuild's space")
	}
	if e.Fingerprint() != rb.Fingerprint() {
		t.Errorf("cached fingerprint %.12s, the rebuild hashes to %.12s", e.Fingerprint(), rb.Fingerprint())
	}
}

// subset reports whether every mark of a is also in b (same space).
func subset(a, b *core.Trace) bool {
	u := core.NewTrace()
	u.Merge(b)
	u.Merge(a)
	return u.Equal(b)
}

// openSpans counts the never-ended spans in a profile: the span-leak
// detector.
func openSpans(p *obs.SpanProfile) int {
	n := 0
	p.Walk(func(_ int, sp *obs.SpanProfile) {
		if sp.Open {
			n++
		}
	})
	return n
}

// TestRunWorkersEquivalence holds what the differential matrix cannot
// see from outside: a replica pool is built exactly when Config.Workers
// is above one, and a run into a private destination trace leaves the
// accumulated one alone. That a
// pooled run's results, trace and tables equal a sequential run's is the
// matrix's workers row (internal/difftest).
func TestRunWorkersEquivalence(t *testing.T) {
	suite := suiteOf(t, "default,connected,internal,agg,reach")
	base := regional(t)
	seq := New(base.Clone(), Config{})
	if _, err := seq.Run(bg, "", suite, nil); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3} {
		e := New(base.Clone(), Config{Workers: workers})
		root := obs.NewRoot("test", nil)
		if _, err := e.Run(obs.ContextWithSpan(bg, root), "suite", suite, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		root.End()
		if (e.pool != nil) != (workers > 1) {
			t.Errorf("workers=%d: replica pool built = %v", workers, e.pool != nil)
		}
		// A pooled run hangs the pool's build, every shard and the merge
		// beneath its stage span, and closes them all.
		if open := openSpans(root.Profile()); open != 0 {
			t.Errorf("workers=%d: %d open spans", workers, open)
		}
		names := map[string]bool{}
		root.Profile().Walk(func(_ int, sp *obs.SpanProfile) { names[sp.Name] = true })
		for _, name := range []string{"sharded.build_replicas", "shard[0]", fmt.Sprintf("shard[%d]", workers-1), "sharded.merge"} {
			if names[name] != (workers > 1) {
				t.Errorf("workers=%d: span %q present = %v", workers, name, names[name])
			}
		}
	}

	// A private destination trace gets the run's coverage and the
	// accumulated trace none of it.
	e := New(base.Clone(), Config{Workers: 1})
	frag := core.NewTrace()
	if _, err := e.Run(bg, "", suite, frag); err != nil {
		t.Fatal(err)
	}
	if st := e.Trace().Stats(); st.Locations != 0 || st.MarkedRules != 0 {
		t.Errorf("accumulated trace has %+v after a run into a private fragment", st)
	}
	if !frag.TransferTo(seq.Net().Space).Equal(seq.Trace()) {
		t.Error("private fragment differs from the sequential run's trace")
	}
}

func TestNoNetwork(t *testing.T) {
	e := New(nil, Config{})
	if _, err := e.Run(bg, "", testkit.Suite{testkit.DefaultRouteCheck{}}, nil); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("Run: %v, want ErrNoNetwork", err)
	}
	if _, err := e.Merge(bg, []byte("{}")); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("Merge: %v, want ErrNoNetwork", err)
	}
	if err := e.View(bg, "", func(*core.Coverage) {}); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("View: %v, want ErrNoNetwork", err)
	}
	if _, err := e.Patch(bg, delta.Document{}); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("Patch: %v, want ErrNoNetwork", err)
	}
	if err := e.Snapshot(t.TempDir() + "/snap"); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("Snapshot: %v, want ErrNoNetwork", err)
	}
	if e.Fingerprint() != "" {
		t.Errorf("fingerprint %q without a network", e.Fingerprint())
	}
	// The empty trace still encodes, as JSON only.
	want, err := New(regional(t), Config{}).EncodeFragment(bg, core.NewTrace(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e.EncodeFragment(bg, e.Trace(), false); err != nil || !bytes.Equal(got, want) {
		t.Errorf("EncodeFragment(json) = %q, %v; want %q", got, err, want)
	}
	if _, err := e.EncodeFragment(bg, e.Trace(), true); !errors.Is(err, ErrNoNetwork) {
		t.Errorf("EncodeFragment(arena): %v, want ErrNoNetwork", err)
	}
}

// patchDoc removes the first ToR's default route (a rule DefaultRouteCheck
// marks, so the delta carries decay) and rewrites the origin of its next
// FIB rule.
func patchDoc(net *netmodel.Network) delta.Document {
	tor := net.Devices[core.DevicesByRole(net, netmodel.RoleToR)[0]]
	spec := net.RuleSpecOf(tor.FIB[1])
	spec.Origin = string(netmodel.OriginStatic)
	return delta.Document{Ops: []delta.Op{
		{Op: delta.OpRemove, Rule: tor.FIB[len(tor.FIB)-1]},
		{Op: delta.OpModify, Rule: tor.FIB[1], Spec: &spec},
	}}
}

// TestDegradation is the degradation model, asserted once for every door
// onto the engine. Each case injects one fault into one call on a fresh
// engine (a clone of one base network, holding a recorded trace), checks
// that the call reports it and leaves exactly what the package comment
// and DESIGN.md §2.15 say, then repeats the call without the fault and
// holds the final state to the JSON-rebuild oracle.
func TestDegradation(t *testing.T) {
	suite := suiteOf(t, "default,internal,agg")
	more := suiteOf(t, "connected,reach")
	base := regional(t)
	seed := New(base, Config{})
	if _, err := seed.Run(bg, "", suite, nil); err != nil {
		t.Fatal(err)
	}
	// A fragment in both wire codecs: what the second suite records.
	other := New(base.Clone(), Config{})
	if _, err := other.Run(bg, "", more, nil); err != nil {
		t.Fatal(err)
	}
	arena, err := other.EncodeFragment(bg, other.Trace(), true)
	if err != nil {
		t.Fatal(err)
	}
	cubes, err := other.EncodeFragment(bg, other.Trace(), false)
	if err != nil {
		t.Fatal(err)
	}

	// fresh is an engine over a clone of base holding seed's trace.
	fresh := func(t *testing.T, workers int) *Engine {
		t.Helper()
		e := New(base.Clone(), Config{Workers: workers})
		if err := e.MergeTrace(bg, seed.Trace().TransferTo(e.Net().Space)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	// state is what a fault must not move unless the contract says so.
	type state struct {
		trace *core.Trace
		fp    string
		rules int
		gen   uint64
	}
	snap := func(e *Engine) state {
		tr := core.NewTrace()
		tr.Merge(e.Trace())
		return state{tr, e.Fingerprint(), len(e.Net().Rules), e.Net().Generation()}
	}
	// kept asserts the monotone-union outcome: nothing recorded before
	// the call is lost, and the network is as it was.
	kept := func(t *testing.T, e *Engine, before state) {
		t.Helper()
		if !subset(before.trace, e.Trace()) {
			t.Error("marks recorded before the aborted call were lost")
		}
		if e.Fingerprint() != before.fp || e.Net().Generation() != before.gen {
			t.Error("an aborted call changed the network")
		}
	}
	// untouched asserts the nothing-changed outcome.
	untouched := func(t *testing.T, e *Engine, before state) {
		t.Helper()
		if !e.Trace().Equal(before.trace) {
			t.Error("the aborted call changed the trace")
		}
		if e.Fingerprint() != before.fp || e.Net().Generation() != before.gen || len(e.Net().Rules) != before.rules {
			t.Error("the aborted call changed the network")
		}
	}

	type call func(ctx context.Context, e *Engine) error
	run := func(s testkit.Suite) call {
		return func(ctx context.Context, e *Engine) error {
			_, err := e.Run(ctx, "test.run", s, nil)
			return err
		}
	}
	merge := func(data []byte) call {
		return func(ctx context.Context, e *Engine) error { _, err := e.Merge(ctx, data); return err }
	}
	view := func(ctx context.Context, e *Engine) error {
		return e.View(ctx, "test.view", func(c *core.Coverage) { report.Gaps(c) })
	}
	patch := func(ctx context.Context, e *Engine) error {
		_, err := e.Patch(ctx, patchDoc(e.Net()))
		return err
	}

	// maxOps is the op budget of the /budget cases: the call's context
	// is cancelled once the canonical space has charged that many ops
	// (faults.CancelAtOp). A sharded run charges that space only for its
	// merge, about ten ops here (the replicas are the pool's own), so its
	// budget is smaller.
	cases := []struct {
		name    string
		workers int
		maxOps  int
		op      call
		after   func(*testing.T, *Engine, state)
	}{
		{"run/sequential", 1, 50, run(more), kept},
		{"run/sharded", 2, 2, run(more), kept},
		{"merge/arena", 1, 50, merge(arena), kept},
		{"merge/json", 1, 50, merge(cubes), kept},
		{"patch", 2, 50, patch, untouched},
		{"view", 1, 50, view, untouched},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/budget", func(t *testing.T) {
			e := fresh(t, tc.workers)
			before := snap(e)
			ctx := faults.CancelAtOp(e.Net().Space.Manager(), tc.maxOps)
			if err := tc.op(ctx, e); !errors.Is(err, context.Canceled) || !Aborted(err) {
				t.Fatalf("err = %v, want the cancellation at op %d", err, tc.maxOps+1)
			}
			tc.after(t, e, before)
			if err := tc.op(bg, e); err != nil {
				t.Fatalf("the same call under a live context: %v", err)
			}
			assertRebuildEquivalent(t, e)
		})
		t.Run(tc.name+"/cancelled", func(t *testing.T) {
			e := fresh(t, tc.workers)
			before := snap(e)
			if err := tc.op(cancelled(), e); !errors.Is(err, context.Canceled) || !Aborted(err) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			tc.after(t, e, before)
			if err := tc.op(bg, e); err != nil {
				t.Fatalf("the same call under a live context: %v", err)
			}
			assertRebuildEquivalent(t, e)
		})
	}

	// A panicking test is its own errored result: the run succeeds, the
	// other tests' coverage is recorded, sequentially and sharded alike.
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("run/workers=%d/panic", workers), func(t *testing.T) {
			e, clean := fresh(t, workers), fresh(t, workers)
			hostile := append(testkit.Suite{faults.PanicTest{}}, more...)
			results, err := e.Run(bg, "", hostile, nil)
			if err != nil {
				t.Fatalf("a panicking test failed the run: %v", err)
			}
			if len(results) != len(hostile) || !results[0].Errored() {
				t.Fatalf("results = %v, want the panic as one errored result of %d", results, len(hostile))
			}
			if _, err := clean.Run(bg, "", more, nil); err != nil {
				t.Fatal(err)
			}
			if got, want := tableOf(t, e), tableOf(t, clean); got != want {
				t.Errorf("table after a panicking test:\n%s\nwant:\n%s", got, want)
			}
			assertRebuildEquivalent(t, e)
		})
	}

	// Patch, cancelled op by op: at every op around the first one whose
	// cancellation lets the commit through (op counts shift by a few
	// between engines — the op cache is warmed in map order — so the
	// boundary is scanned, not pinned). Short of the commit the call
	// aborts with nothing changed; past it the delta is applied even when
	// the drift report is cut short, which must not read as a failed
	// delta.
	t.Run("patch/commit-boundary", func(t *testing.T) {
		try := func(maxOps int) (e *Engine, before state, applied *delta.Applied, err error) {
			e = fresh(t, 2)
			if _, err := e.Run(bg, "", more, nil); err != nil { // builds the pool
				t.Fatal(err)
			}
			before = snap(e)
			applied, err = e.Patch(faults.CancelAtOp(e.Net().Space.Manager(), maxOps), patchDoc(e.Net()))
			return e, before, applied, err
		}
		lo, hi := 1, 1<<22
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if _, _, applied, _ := try(mid); applied != nil {
				hi = mid
			} else {
				lo = mid
			}
		}
		var aborted, cutShort, whole int
		var patched string
		for k := max(lo-48, 1); k < lo+48 || whole == 0; k++ {
			if k == lo+48 {
				k = 1 << 30 // never cancelled: the whole report
			}
			e, before, applied, err := try(k)
			if applied == nil {
				aborted++
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("op %d: err = %v, want the cancellation", k, err)
				}
				untouched(t, e, before)
				if e.pool == nil {
					t.Errorf("op %d: a pre-commit abort dropped the replica pool", k)
				}
				continue
			}
			switch {
			case err == nil && len(applied.Drift) > 0:
				whole++
			case errors.Is(err, delta.ErrDriftIncomplete) && applied.Drift == nil:
				cutShort++
			default:
				t.Fatalf("op %d: applied=%+v err=%v", k, applied, err)
			}
			if e.Fingerprint() != applied.Fingerprint || e.Fingerprint() == before.fp || e.Net().Generation() == before.gen {
				t.Errorf("op %d: a committed delta did not advance the fingerprint and generation", k)
			}
			if patched == "" {
				patched = e.Fingerprint()
			} else if e.Fingerprint() != patched {
				t.Errorf("op %d: the same delta produced another network", k)
			}
			if e.pool != nil {
				t.Errorf("op %d: a committed delta kept replicas of the network as it was", k)
			}
			if applied.Decay.DroppedMarks == 0 {
				t.Errorf("op %d: the removed rule was marked; its mark must be reported as decay", k)
			}
			assertRebuildEquivalent(t, e)
			if cutShort+whole == 1 {
				// The next parallel run clones the patched network.
				if _, err := e.Run(bg, "", suite, nil); err != nil {
					t.Fatal(err)
				}
				assertRebuildEquivalent(t, e)
			}
		}
		if aborted == 0 || cutShort == 0 || whole == 0 {
			t.Errorf("scan saw %d pre-commit aborts, %d cut-short reports, %d whole ones; want some of each", aborted, cutShort, whole)
		}
	})

	// A stale base and an invalid document are the caller's fault, not
	// aborts, and change nothing either.
	t.Run("patch/rejected", func(t *testing.T) {
		e := fresh(t, 1)
		before := snap(e)
		doc := patchDoc(e.Net())
		doc.Base = "stale"
		var bm *delta.BaseMismatchError
		if applied, err := e.Patch(bg, doc); applied != nil || !errors.As(err, &bm) || bm.Current != before.fp || Aborted(err) {
			t.Errorf("stale base: applied=%v err=%v", applied, err)
		}
		bad := delta.Document{Ops: []delta.Op{{Op: delta.OpRemove, Rule: netmodel.RuleID(len(e.Net().Rules))}}}
		if applied, err := e.Patch(bg, bad); applied != nil || err == nil || Aborted(err) {
			t.Errorf("invalid document: applied=%v err=%v", applied, err)
		}
		untouched(t, e, before)
	})

	// A fragment recorded against another network is refused before it
	// touches the trace; a damaged one likewise.
	t.Run("merge/rejected", func(t *testing.T) {
		e := fresh(t, 1)
		if _, err := e.Patch(bg, patchDoc(e.Net())); err != nil {
			t.Fatal(err)
		}
		before := snap(e)
		if _, err := e.Merge(bg, arena); !errors.Is(err, core.ErrSnapshotMismatch) {
			t.Errorf("foreign arena: %v, want ErrSnapshotMismatch", err)
		}
		if _, err := e.Merge(bg, arena[:len(arena)/2]); err == nil || Aborted(err) {
			t.Errorf("truncated arena: %v, want a decode error", err)
		}
		untouched(t, e, before)
	})
}

// TestPatchFingerprintFresh holds the engine's fingerprint to a fresh
// core.Fingerprint of a copy that carries neither the encoding cache nor
// the fingerprint marks after every Patch of a sequence,
// and after patches whose drift report a cancellation cut short: once
// the commit has published, the new fingerprint is always held.
func TestPatchFingerprintFresh(t *testing.T) {
	e := New(regional(t), Config{})
	if _, err := e.Run(bg, "", suiteOf(t, "default,connected,internal,agg,reach"), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		doc := patchDoc(e.Net())
		doc.Base = e.Fingerprint()
		applied, err := e.Patch(bg, doc)
		if err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		assertFingerprintFresh(t, e, applied)
	}

	// A patch that touches every ToR, on copies of e cancelled at an op:
	// the ops just past the commit leave too little for the drift, which
	// derives each touched device's marked union again.
	wide := func(n *netmodel.Network) delta.Document {
		var doc delta.Document
		for _, tor := range core.DevicesByRole(n, netmodel.RoleToR) {
			fib := n.Devices[tor].FIB
			doc.Ops = append(doc.Ops, delta.Op{Op: delta.OpRemove, Rule: fib[len(fib)-1]})
		}
		return doc
	}
	try := func(maxOps int) (*Engine, *delta.Applied, error) {
		p := New(e.Net().Clone(), Config{})
		if err := p.MergeTrace(bg, e.Trace().TransferTo(p.Net().Space)); err != nil {
			t.Fatal(err)
		}
		applied, err := p.Patch(faults.CancelAtOp(p.Net().Space.Manager(), maxOps), wide(p.Net()))
		return p, applied, err
	}
	lo, hi := 1, 1<<22
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if _, applied, _ := try(mid); applied != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	cutShort := 0
	for k := max(hi-32, 1); k < hi+64; k++ {
		p, applied, err := try(k)
		if applied == nil {
			continue
		}
		if errors.Is(err, delta.ErrDriftIncomplete) {
			cutShort++
		}
		assertFingerprintFresh(t, p, applied)
	}
	t.Logf("%d cancellations cut the drift report short", cutShort)
	if cutShort == 0 {
		t.Error("no cancellation cut a drift report short")
	}
}

func assertFingerprintFresh(t *testing.T, e *Engine, applied *delta.Applied) {
	t.Helper()
	fresh := core.Fingerprint(e.Net().Clone())
	if e.Fingerprint() != fresh || applied.Fingerprint != fresh || core.Fingerprint(e.Net()) != fresh {
		t.Fatalf("engine %.12s, applied %.12s, network %.12s; a fresh encoding hashes to %.12s",
			e.Fingerprint(), applied.Fingerprint, core.Fingerprint(e.Net()), fresh)
	}
}

// TestSnapshotRestore: a checkpoint is refused once the network it was
// taken of has changed, and the refusal leaves the trace alone. That a
// restore reproduces the live trace is the differential matrix's restore
// row (internal/difftest).
func TestSnapshotRestore(t *testing.T) {
	base := regional(t)
	e := New(base, Config{})
	if _, err := e.Run(bg, "", suiteOf(t, "default,internal"), nil); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.snap"
	if err := e.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	again := New(base.Clone(), Config{})
	if legacy, err := again.Restore(bg, path); err != nil || legacy {
		t.Fatalf("Restore = legacy %v, %v", legacy, err)
	}
	if _, err := again.Patch(bg, patchDoc(again.Net())); err != nil {
		t.Fatal(err)
	}
	before := again.Trace().Stats()
	if _, err := again.Restore(bg, path); !errors.Is(err, core.ErrSnapshotMismatch) {
		t.Errorf("restore after the network changed: %v, want ErrSnapshotMismatch", err)
	}
	if again.Trace().Stats() != before {
		t.Error("a refused snapshot changed the trace")
	}
}

// TestCancelledContextRunsNothing: the space polls a watched context only
// every 1024 charged ops, so on a network this small a stage would finish
// unseen under a context that had already ended. Every door refuses it
// before doing anything: the trace, the fingerprint and the generation
// stay as they were, and View does not call its fold.
func TestCancelledContextRunsNothing(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	suite := suiteOf(t, "default,internal")
	other := New(ex.Net.Clone(), Config{})
	if _, err := other.Run(bg, "", suite, nil); err != nil {
		t.Fatal(err)
	}
	frag, err := other.EncodeFragment(bg, other.Trace(), true)
	if err != nil {
		t.Fatal(err)
	}
	leaf := ex.Net.Devices[ex.Leaves[0]]
	doc := delta.Document{Ops: []delta.Op{{Op: delta.OpRemove, Rule: leaf.FIB[len(leaf.FIB)-1]}}}

	e := New(ex.Net, Config{})
	e.Trace().MarkPacket(dataplane.Injected(leaf.ID), e.Net().Space.Full())
	before := core.NewTrace()
	before.Merge(e.Trace())
	fp, gen := e.Fingerprint(), e.Net().Generation()
	folded := false
	for name, call := range map[string]func(context.Context) error{
		"run":   func(ctx context.Context) error { _, err := e.Run(ctx, "", suite, nil); return err },
		"merge": func(ctx context.Context) error { _, err := e.Merge(ctx, frag); return err },
		"patch": func(ctx context.Context) error { _, err := e.Patch(ctx, doc); return err },
		"view":  func(ctx context.Context) error { return e.View(ctx, "", func(*core.Coverage) { folded = true }) },
	} {
		if err := call(cancelled()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if !e.Trace().Equal(before) || e.Fingerprint() != fp || e.Net().Generation() != gen {
			t.Errorf("%s under a cancelled context changed the trace or the network", name)
		}
	}
	if folded {
		t.Error("View ran its fold under a cancelled context")
	}
	// The same calls under a live context do their work.
	if _, err := e.Merge(bg, frag); err != nil || e.Trace().Equal(before) {
		t.Errorf("merge under a live context: err = %v, trace moved = %v", err, !e.Trace().Equal(before))
	}
	if _, err := e.Patch(bg, doc); err != nil || e.Net().Generation() == gen {
		t.Errorf("patch under a live context: err = %v, generation %d → %d", err, gen, e.Net().Generation())
	}
}

// TestCoverageStageOps pins the BDD work of a cold coverage read of the
// k=6 fat-tree after the seven-suite run: the devices' marked unions,
// then one walk per rule, and an intersection only for a rule whose
// destination prefix the marks cover in part. Intersecting every rule
// cost 60,620 ops here. The count repeats exactly for a sequential run.
// It was 4,194 while the action classes and match sets were folded
// through the op cache; built by the prefix walk instead, they left
// other entries there, and the count rose to 4,198. It is 4,194 again
// since pingmesh settles a covered hop by a membership walk: its pings
// no longer leave per-hop Or entries in the op cache, and the read's
// count moves with what that cache holds.
func TestCoverageStageOps(t *testing.T) {
	ft, err := topogen.BuildFatTree(6)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ft.Net, Config{})
	if _, err := e.Run(bg, "", suiteOf(t, "default,connected,internal,agg,contract,reach,pingmesh"), nil); err != nil {
		t.Fatal(err)
	}
	ops := e.Net().Space.EngineStats().Ops
	if _, err := e.Table(bg, "coverage", e.Net().Roles(), "TOTAL"); err != nil {
		t.Fatal(err)
	}
	const want = 4194
	if got := e.Net().Space.EngineStats().Ops - ops; got != want {
		t.Errorf("coverage stage charged %d ops, want %d", got, want)
	}
}
