package faults

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

func smallNet(t *testing.T) *netmodel.Network {
	t.Helper()
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rg.Net
}

func TestPanicTestIsIsolated(t *testing.T) {
	net := smallNet(t)
	suite := testkit.Suite{
		testkit.DefaultRouteCheck{},
		PanicTest{Message: "chaos: boom"},
		testkit.ConnectedRouteCheck{},
	}
	results := suite.Run(context.Background(), net, core.NewTrace())
	if len(results) != len(suite) {
		t.Fatalf("got %d results, want %d (suite must survive the panic)", len(results), len(suite))
	}
	var errored int
	for _, r := range results {
		if r.Errored() {
			errored++
			if r.Name != "ChaosPanic" {
				t.Errorf("errored result is %q, want ChaosPanic", r.Name)
			}
			if !strings.Contains(r.Err, "chaos: boom") || !strings.HasPrefix(r.Err, "panic:") {
				t.Errorf("Err = %q, want panic message", r.Err)
			}
			if r.Status() != "error" {
				t.Errorf("Status() = %q, want error", r.Status())
			}
		} else if !r.Pass() {
			t.Errorf("%s failed: %+v", r.Name, r.Failures)
		}
	}
	if errored != 1 {
		t.Fatalf("got %d errored results, want exactly 1", errored)
	}
}

func TestHangTestAbortsOnCancel(t *testing.T) {
	net := smallNet(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	results := testkit.Suite{HangTest{}}.Run(ctx, net, core.Nop{})
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if !results[0].Errored() || !strings.Contains(results[0].Err, context.DeadlineExceeded.Error()) {
		t.Fatalf("result = %+v, want errored with deadline message", results[0])
	}
}

func TestHangTestReleasePasses(t *testing.T) {
	net := smallNet(t)
	release := make(chan struct{})
	close(release)
	results := testkit.Suite{HangTest{Release: release}}.Run(context.Background(), net, core.Nop{})
	if len(results) != 1 || !results[0].Pass() {
		t.Fatalf("results = %+v, want one pass", results)
	}
}

// TestCancelAtOpAbortsAtOp: guarded work on the manager completes k ops
// and aborts at the next, whether or not an earlier poll lies between.
func TestCancelAtOpAbortsAtOp(t *testing.T) {
	work := func(m *bdd.Manager) {
		vals := make([]bool, 16)
		for i := 0; i < 256; i++ { // 16 ops a chain
			for b := range vals {
				vals[b] = i>>b&1 == 1
			}
			m.Literals(0, vals)
		}
	}
	for _, k := range []int{0, 1, 1023, 1024, 4000} {
		m := bdd.New(16)
		ctx := CancelAtOp(m, k)
		base := m.Stats().Ops
		restore := m.WatchContext(ctx)
		err := bdd.Guard(func() { work(m) })
		restore()
		if got := m.Stats().Ops - base; !errors.Is(err, context.Canceled) || got != uint64(k+1) {
			t.Errorf("k = %d: err = %v after %d ops, want context.Canceled at op %d", k, err, got, k+1)
		}
	}
}

func TestSuiteRunHonorsPreCancelledContext(t *testing.T) {
	net := smallNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := testkit.Suite{testkit.DefaultRouteCheck{}, testkit.ConnectedRouteCheck{}}.Run(ctx, net, core.NewTrace())
	if len(results) != 0 {
		t.Fatalf("got %d results on a cancelled context, want 0", len(results))
	}
}
