package netmodel_test

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/dataplane"
	"yardstick/internal/faults"
	"yardstick/internal/hdr"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

func fatTree(t testing.TB, k int) *netmodel.Network {
	t.Helper()
	ft, err := topogen.BuildFatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	return ft.Net
}

// TestMatchSetsFromChildrenEqualOrderedWalk forces the ordered
// claimed-union walk on every FIB of every generated family and compares
// it, rule for rule, with the children-only derivation the network
// holds.
func TestMatchSetsFromChildrenEqualOrderedWalk(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rg6, err := topogen.BuildRegional(topogen.RegionalOpts{IPv6: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*netmodel.Network{
		"example": ex.Net, "fattree": fatTree(t, 6), "regional-acl": aclRegional(t), "regional-v6": rg6.Net,
	} {
		for _, d := range n.Devices {
			if !n.DstOnly(d.ID) {
				t.Errorf("%s: %s is not destination-only: the generated families should all take the lookup", name, d.Name)
			}
			for i, want := range n.OrderedFIBMatchSets(d.ID) {
				if r := n.Rule(d.FIB[i]); !r.MatchSet().Equal(want) {
					t.Fatalf("%s: %s rule %d (%v): match set differs from the ordered walk", name, d.Name, r.ID, r.Match.DstPrefix)
				}
			}
		}
	}
}

// TestActionClassesEqualFold holds every class, and Routed, that the
// walk of a destination-only device's sorted prefixes builds to the
// pairwise fold of the members' match sets, on every generated family.
func TestActionClassesEqualFold(t *testing.T) {
	ex, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rg6, err := topogen.BuildRegional(topogen.RegionalOpts{IPv6: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*netmodel.Network{
		"example": ex.Net, "fattree": fatTree(t, 6), "regional": rg.Net, "regional-acl": aclRegional(t), "regional-v6": rg6.Net,
	} {
		for _, d := range n.Devices {
			got, want := n.Forwarding(d.ID), n.FoldedForwarding(d.ID)
			if len(got.Classes) != len(want.Classes) {
				t.Fatalf("%s: %s has %d classes, the fold %d", name, d.Name, len(got.Classes), len(want.Classes))
			}
			for i, c := range want.Classes {
				if !got.Classes[i].Match.Equal(c.Match) {
					t.Fatalf("%s: %s class %d differs from the fold", name, d.Name, i)
				}
			}
			if !got.Routed.Equal(want.Routed) {
				t.Fatalf("%s: %s Routed differs from the fold", name, d.Name)
			}
		}
	}
}

// TestActionClassesPartitionTheFIB: a device's classes are disjoint,
// cover exactly what its FIB rules cover, each holds the rules of one
// action, and there are far fewer of them than rules.
func TestActionClassesPartitionTheFIB(t *testing.T) {
	n := fatTree(t, 6)
	rules, classes := 0, 0
	for _, d := range n.Devices {
		fw := n.Forwarding(d.ID)
		if fw.HasACL {
			t.Fatalf("%s: fat-tree devices have no ACL", d.Name)
		}
		covered := n.Space.Empty()
		for i, c := range fw.Classes {
			if c.Match.Overlaps(covered) {
				t.Fatalf("%s: class %d overlaps an earlier one", d.Name, i)
			}
			covered = covered.Union(c.Match)
		}
		want := n.Space.Empty()
		for _, id := range d.FIB {
			r := n.Rule(id)
			want = want.Union(r.MatchSet())
			found := false
			for _, c := range fw.Classes {
				if c.Match.Contains(r.MatchSet()) {
					found = c.Action.Kind == r.Action.Kind && len(c.Action.OutIfaces) == len(r.Action.OutIfaces)
				}
			}
			if !found {
				t.Fatalf("%s: rule %d is in no class of its action", d.Name, id)
			}
		}
		if !covered.Equal(want) || !fw.Routed.Equal(want) {
			t.Fatalf("%s: classes (or Routed) do not cover exactly the FIB", d.Name)
		}
		rules += len(d.FIB)
		classes += len(fw.Classes)
	}
	if classes*4 > rules {
		t.Errorf("%d classes for %d rules: grouping by action bought nothing", classes, rules)
	}
}

// floodAll floods the full header space from every step-th device, which
// builds the classes of every device a flood reaches.
func floodAll(t testing.TB, n *netmodel.Network, step int) []*dataplane.Reachability {
	t.Helper()
	var out []*dataplane.Reachability
	for i := 0; i < len(n.Devices); i += step {
		r, err := dataplane.Reach(n, dataplane.Injected(netmodel.DeviceID(i)), n.Space.Full(), dataplane.ReachOpts{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// sameFloods compares floods of two networks over different spaces.
func sameFloods(t testing.TB, what string, got, want []*dataplane.Reachability, from, to *netmodel.Network) {
	t.Helper()
	tr := hdr.NewTransfer(from.Space, to.Space)
	for i := range want {
		if len(got[i].Arrived) != len(want[i].Arrived) || len(got[i].Egressed) != len(want[i].Egressed) ||
			len(got[i].Dropped) != len(want[i].Dropped) || len(got[i].NoRoute) != len(want[i].NoRoute) ||
			len(got[i].Delivered) != len(want[i].Delivered) {
			t.Fatalf("%s: flood %d has a different shape", what, i)
		}
		for loc, s := range want[i].Arrived {
			if !got[i].Arrived[loc].Equal(tr.Move(s)) {
				t.Fatalf("%s: flood %d: Arrived[%v] differs", what, i, loc)
			}
		}
		for ifid, s := range want[i].Egressed {
			if !got[i].Egressed[ifid].Equal(tr.Move(s)) {
				t.Fatalf("%s: flood %d: Egressed[%d] differs", what, i, ifid)
			}
		}
		for dev, s := range want[i].Dropped {
			if !got[i].Dropped[dev].Equal(tr.Move(s)) {
				t.Fatalf("%s: flood %d: Dropped[%d] differs", what, i, dev)
			}
		}
	}
}

// TestForwardingInvalidation: classes appear on the first flood, a
// commit drops exactly the touched devices', SetAction drops its
// device's, and a clone carries what was built without sharing it.
func TestForwardingInvalidation(t *testing.T) {
	n := aclRegional(t)
	for _, d := range n.Devices {
		if n.BuiltForwarding(d.ID) != nil {
			t.Fatalf("%s has classes before any flood: the index must be lazy", d.Name)
		}
	}
	floodAll(t, n, 9)
	built := make([]*netmodel.Forwarding, len(n.Devices))
	for _, d := range n.Devices {
		if built[d.ID] = n.BuiltForwarding(d.ID); built[d.ID] == nil {
			t.Fatalf("%s has no classes after full floods", d.Name)
		}
	}

	// Commit: remove one FIB rule of device 3.
	mut := n.BeginMutation()
	if err := mut.Remove(n.Device(3).FIB[0]); err != nil {
		t.Fatal(err)
	}
	res, err := mut.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Touched) != 1 || res.Touched[0] != 3 {
		t.Fatalf("touched %v, want [3]", res.Touched)
	}
	for _, d := range n.Devices {
		switch got := n.BuiltForwarding(d.ID); {
		case d.ID == 3 && got != nil:
			t.Fatal("the touched device kept its classes")
		case d.ID != 3 && got != built[d.ID]:
			t.Fatalf("untouched %s lost its classes", d.Name)
		}
	}

	// SetAction: null-route one rule of device 5.
	victim := n.Rule(n.Device(5).FIB[0])
	n.SetAction(victim.ID, netmodel.Action{Kind: netmodel.ActDrop})
	if n.BuiltForwarding(5) != nil {
		t.Fatal("SetAction kept the device's classes")
	}
	if n.BuiltForwarding(6) != built[6] {
		t.Fatal("SetAction dropped another device's classes")
	}

	// Clone: built classes are carried by node index; dropped ones stay
	// dropped; the copy is independent.
	c := n.Clone()
	for _, d := range n.Devices {
		orig, cp := n.BuiltForwarding(d.ID), c.BuiltForwarding(d.ID)
		if (orig == nil) != (cp == nil) {
			t.Fatalf("%s: clone built=%v, original built=%v", d.Name, cp != nil, orig != nil)
		}
		if orig == nil {
			continue
		}
		if cp == orig || len(cp.Classes) != len(orig.Classes) {
			t.Fatalf("%s: clone shares or reshapes the classes", d.Name)
		}
		for i := range orig.Classes {
			if cp.Classes[i].Match.Space() != c.Space || cp.Classes[i].Match.Node() != orig.Classes[i].Match.Node() {
				t.Fatalf("%s class %d: not carried by node index into the clone's space", d.Name, i)
			}
		}
	}
	c.SetAction(c.Device(6).FIB[0], netmodel.Action{Kind: netmodel.ActDrop})
	if n.BuiltForwarding(6) != built[6] {
		t.Fatal("a write to the clone reached the original")
	}

	// Carried, dropped and rebuilt classes together flood like a network
	// decoded from the clone's JSON, which never had any.
	var buf bytes.Buffer
	if err := c.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := netmodel.DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameFloods(t, "clone of the edited network", floodAll(t, c, 9), floodAll(t, fresh, 9), fresh, c)
}

// TestRuleActionIsWrittenThroughSetAction guards the one contract the
// index cannot check for itself: action classes are derived from
// Rule.Action, so a write to that field on a frozen network leaves Reach
// answering from stale classes while Traceroute and ApplyDevice see the
// new action. Non-test code outside this package therefore never assigns
// to a .Action field (or through one); it calls Network.SetAction. The
// scan parses without type information, so any field of that name counts.
func TestRuleActionIsWrittenThroughSetAction(t *testing.T) {
	root := filepath.Join("..", "..")
	throughAction := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if x.Sel.Name == "Action" {
					return true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == filepath.Join("internal", "netmodel") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(file, func(n ast.Node) bool {
			var written []ast.Expr
			switch st := n.(type) {
			case *ast.AssignStmt:
				if st.Tok != token.DEFINE {
					written = st.Lhs
				}
			case *ast.IncDecStmt:
				written = []ast.Expr{st.X}
			}
			for _, lhs := range written {
				if throughAction(lhs) {
					t.Errorf("%s: assignment to a rule's Action — call Network.SetAction, which drops the device's action classes", fset.Position(lhs.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned %d files: the walk did not find the module", files)
	}
}

// TestForwardingBuildLeavesNothingBehind cancels a flood at an op in the
// middle of its first class build, and then at the first poll that finds
// a class build on the stack: no device may keep a half-built
// index — a device keeps nothing or all its classes — and the next flood
// must equal the flood of a twin that was never disturbed.
func TestForwardingBuildLeavesNothingBehind(t *testing.T) {
	const start = netmodel.DeviceID(0)
	for _, tc := range []struct {
		name string
		arm  func(n *netmodel.Network, startOps uint64) (disarm func())
	}{
		// The start device's build is the flood's first BDD work; the
		// flood may run half of it.
		{"MaxOps", func(n *netmodel.Network, startOps uint64) func() {
			return n.Space.WatchContext(faults.CancelAtOp(n.Space.Manager(), int(startOps/2)))
		}},
		// The context is polled every 1024 ops; it reports cancellation
		// at the first poll that finds a class build on the stack.
		{"cancelled context", func(n *netmodel.Network, _ uint64) func() {
			return n.Space.WatchContext(&cancelInBuild{Context: context.Background()})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := fatTree(t, 10)
			twin := n.Clone()
			// What the class builds of the first flood cost, measured on
			// a second twin: the context poll needs them long enough to
			// land inside one.
			probe := n.Clone()
			floodAll(t, probe, len(n.Devices))
			buildOps, startOps := uint64(0), uint64(0)
			for _, d := range twin.Devices {
				if probe.BuiltForwarding(d.ID) != nil {
					before := twin.Space.EngineStats().Ops
					twin.Forwarding(d.ID)
					cost := twin.Space.EngineStats().Ops - before
					buildOps += cost
					if d.ID == start {
						startOps = cost
					}
				}
			}
			if buildOps < 2048 {
				t.Fatalf("the class builds of the first flood cost %d ops: too short to interrupt", buildOps)
			}
			want := floodAll(t, twin, 16)

			disarm := tc.arm(n, startOps)
			err := bdd.Guard(func() {
				_, _ = dataplane.Reach(n, dataplane.Injected(start), n.Space.Full(), dataplane.ReachOpts{})
			})
			disarm()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("flood error = %v, want the cancellation", err)
			}
			tr := hdr.NewTransfer(twin.Space, n.Space)
			unbuilt := 0
			for _, d := range n.Devices {
				got, full := n.BuiltForwarding(d.ID), twin.BuiltForwarding(d.ID)
				if got == nil {
					unbuilt++
					continue
				}
				if len(got.Classes) != len(full.Classes) || !got.Routed.Equal(tr.Move(full.Routed)) {
					t.Fatalf("%s kept classes from an interrupted build", d.Name)
				}
				for i, c := range full.Classes {
					if !got.Classes[i].Match.Equal(tr.Move(c.Match)) {
						t.Fatalf("%s kept class %d from an interrupted build", d.Name, i)
					}
				}
			}
			if unbuilt == 0 {
				t.Fatal("every device has classes: the trip did not interrupt a build")
			}
			sameFloods(t, "after the interrupted build", floodAll(t, n, 16), want, twin, n)
		})
	}
}

// cancelInBuild is a context that is cancelled from the first time Err
// is called inside a class build (Network.buildForwarding on the stack).
type cancelInBuild struct {
	context.Context
	fired bool
}

func (c *cancelInBuild) Err() error {
	if !c.fired {
		pc := make([]uintptr, 64)
		frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
		for more := true; more && !c.fired; {
			var f runtime.Frame
			f, more = frames.Next()
			c.fired = strings.HasSuffix(f.Function, ".buildForwarding")
		}
	}
	if c.fired {
		return context.Canceled
	}
	return nil
}
