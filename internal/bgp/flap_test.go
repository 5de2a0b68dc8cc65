package bgp

import (
	"testing"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
)

// flapConfig builds the line topology with two originations: a default
// at one end and an internal prefix at the other.
func flapConfig(t *testing.T) (Config, [3]netmodel.DeviceID) {
	t.Helper()
	n, ds := line(t)
	return Config{
		Net: n,
		Origins: []Origination{
			{Device: ds[0], Prefix: pfx(t, "10.1.0.0/24"), Origin: netmodel.OriginInternal, EdgeIface: netmodel.NoIface},
			{Device: ds[2], Prefix: pfx(t, "0.0.0.0/0"), Origin: netmodel.OriginDefault, EdgeIface: netmodel.NoIface},
		},
	}, ds
}

func fingerprint(t *testing.T, n *netmodel.Network) string {
	t.Helper()
	return core.Fingerprint(n)
}

func TestGenFlapsDeterministic(t *testing.T) {
	a := GenFlaps(7, 50, 4)
	b := GenFlaps(7, 50, 4)
	if len(a) != 50 {
		t.Fatalf("len = %d, want 50", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := GenFlaps(8, 50, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
	// The schedule is always consistent: withdrawals target announced
	// originations, re-announcements target withdrawn ones.
	up := map[int]bool{}
	for i, ev := range a {
		if ev.Origin < 0 || ev.Origin >= 4 {
			t.Fatalf("event %d origin %d out of range", i, ev.Origin)
		}
		wasUp := !up[ev.Origin] // up map tracks DOWN origins
		if ev.Up == wasUp {
			t.Fatalf("event %d is a no-op toggle: %+v", i, ev)
		}
		up[ev.Origin] = !ev.Up
	}
}

func TestGenFlapsDegenerate(t *testing.T) {
	if GenFlaps(1, 0, 4) != nil || GenFlaps(1, 10, 0) != nil {
		t.Error("degenerate inputs must yield no schedule")
	}
	// A single origination still oscillates: down, up, down, up, …
	evs := GenFlaps(3, 6, 1)
	for i, ev := range evs {
		if ev.Origin != 0 || ev.Up != (i%2 == 1) {
			t.Fatalf("single-origin schedule broken at %d: %+v", i, ev)
		}
	}
}

func TestReplayToggleRange(t *testing.T) {
	cfg, _ := flapConfig(t)
	r := NewReplay(cfg)
	if err := r.Toggle(FlapEvent{Origin: 2, Up: false}); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if err := r.Toggle(FlapEvent{Origin: -1, Up: false}); err == nil {
		t.Error("negative origin accepted")
	}
	if r.Up() != 2 {
		t.Errorf("Up() = %d after rejected toggles, want 2", r.Up())
	}
}

func TestReplayBuildAllUpMatchesDirectRun(t *testing.T) {
	cfg, _ := flapConfig(t)
	// Converge the base network directly with the same inputs.
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	r := NewReplay(Config{Net: cfg.Net, Origins: cfg.Origins, Statics: cfg.Statics, Export: cfg.Export})
	built, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built == cfg.Net {
		t.Fatal("Build must converge into a clone, not the source network")
	}
	if got, want := fingerprint(t, built), fingerprint(t, cfg.Net); got != want {
		t.Errorf("all-up replay diverges from direct convergence: %s vs %s", got, want)
	}
}

func TestReplayWithdrawAndReannounce(t *testing.T) {
	cfg, ds := flapConfig(t)
	r := NewReplay(cfg)
	base, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	baseFP := fingerprint(t, base)

	// Withdraw the internal prefix: the far end loses its route.
	if err := r.Toggle(FlapEvent{Origin: 0, Up: false}); err != nil {
		t.Fatal(err)
	}
	if r.Up() != 1 {
		t.Fatalf("Up() = %d, want 1", r.Up())
	}
	down, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range down.Device(ds[2]).FIB {
		if down.Rule(id).Match.DstPrefix == pfx(t, "10.1.0.0/24") {
			t.Fatal("withdrawn prefix still installed at the far end")
		}
	}
	if fingerprint(t, down) == baseFP {
		t.Error("withdrawal did not change the forwarding state")
	}

	// Re-announce: the state returns to the base, bit for bit.
	if err := r.Toggle(FlapEvent{Origin: 0, Up: true}); err != nil {
		t.Fatal(err)
	}
	backUp, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, backUp) != baseFP {
		t.Error("re-announcement did not restore the base forwarding state")
	}
}

// TestReplayStreamDeterministic replays the same generated schedule
// twice and checks the per-step forwarding states agree exactly.
func TestReplayStreamDeterministic(t *testing.T) {
	evs := GenFlaps(11, 8, 2)
	var fps [2][]string
	for run := 0; run < 2; run++ {
		cfg, _ := flapConfig(t)
		r := NewReplay(cfg)
		for _, ev := range evs {
			if err := r.Toggle(ev); err != nil {
				t.Fatal(err)
			}
			n, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			fps[run] = append(fps[run], fingerprint(t, n))
		}
	}
	for i := range fps[0] {
		if fps[0][i] != fps[1][i] {
			t.Fatalf("step %d fingerprints differ across identical replays", i)
		}
	}
}
