package bgp

import (
	"fmt"
	"math/rand"

	"yardstick/internal/netmodel"
)

// Flap replay: deterministic withdraw/re-announce schedules over a
// configuration's originations, replayed into fresh forwarding state per
// step — the churn workload of the incremental-coverage scenario. Each
// event toggles one origination, the control plane re-converges only its
// prefix (no other prefix's routes can move) into a clone of the
// topology, and internal/delta.Diff turns consecutive states into delta
// documents.

// FlapEvent toggles one origination. Up reports the origination's state
// *after* the event (false = withdrawn).
type FlapEvent struct {
	Origin int  `json:"origin"` // index into Config.Origins
	Up     bool `json:"up"`
}

// GenFlaps returns a deterministic schedule of n flap events over
// origins originations: each event picks an origination with the seeded
// generator and toggles it, biased two-to-one toward re-announcing when
// anything is down (so the network keeps oscillating around its
// converged state instead of draining to nothing). The same seed always
// yields the same schedule.
func GenFlaps(seed int64, n, origins int) []FlapEvent {
	if origins <= 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	down := make(map[int]bool)
	var downList []int
	events := make([]FlapEvent, 0, n)
	for len(events) < n {
		if len(downList) > 0 && rng.Intn(3) > 0 {
			// Re-announce a random withdrawn origination.
			i := rng.Intn(len(downList))
			o := downList[i]
			downList[i] = downList[len(downList)-1]
			downList = downList[:len(downList)-1]
			delete(down, o)
			events = append(events, FlapEvent{Origin: o, Up: true})
			continue
		}
		o := rng.Intn(origins)
		if down[o] {
			continue
		}
		down[o] = true
		downList = append(downList, o)
		events = append(events, FlapEvent{Origin: o, Up: false})
	}
	return events
}

// Replay maintains origination up/down state for a configuration and
// rebuilds forwarding state on demand, re-converging only the prefixes
// toggled since the last Build. The configuration's network is only the
// topology source (it may be frozen): Build installs into a CloneTopology.
type Replay struct {
	s *sim
}

// NewReplay starts a replay with every origination announced.
func NewReplay(cfg Config) *Replay {
	return &Replay{s: newSim(cfg)}
}

// Toggle applies one event to the origination state.
func (r *Replay) Toggle(ev FlapEvent) error {
	if ev.Origin < 0 || ev.Origin >= len(r.s.up) {
		return fmt.Errorf("bgp: flap event origin %d out of range", ev.Origin)
	}
	r.s.up[ev.Origin] = ev.Up
	r.s.dirty[r.s.pidOf[ev.Origin]] = true
	return nil
}

// Up reports how many originations are currently announced.
func (r *Replay) Up() int {
	n := 0
	for _, u := range r.s.up {
		if u {
			n++
		}
	}
	return n
}

// Build converges the control plane for the current origination state
// into a fresh clone of the topology and returns the resulting network
// with its forwarding state installed but match sets *not* computed —
// diffing against a live network needs only the rule definitions, and
// the caller decides whether the clone's symbolic state is ever needed.
func (r *Replay) Build() (*netmodel.Network, error) {
	clone := r.s.cfg.Net.CloneTopology()
	if err := r.s.build(clone, nil); err != nil {
		return nil, fmt.Errorf("bgp: flap replay convergence: %w", err)
	}
	return clone, nil
}
