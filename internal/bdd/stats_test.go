package bdd

import "testing"

// growPast adds distinct nodes (cubes over the low variables, built
// straight into the unique table, so the op cache is not touched) until
// the manager holds more than n nodes.
func growPast(m *Manager, n int) {
	vals := make([]bool, 24)
	for i := 0; m.Size() <= n; i++ {
		for b := range vals {
			vals[b] = i>>b&1 == 1
		}
		m.Literals(0, vals)
	}
}

// TestResizeCounters: enough distinct nodes must double both tables at
// least once, and the counters must record it.
func TestResizeCounters(t *testing.T) {
	m := New(64)
	growPast(m, minCacheSlots)
	st := m.Stats()
	if st.UniqueResizes == 0 {
		t.Error("unique table never resized")
	}
	if st.CacheResizes == 0 {
		t.Error("op cache never resized")
	}
}

// TestCacheSlotsFor pins the op-cache sizing rule from a fresh manager
// through the cap, which no test could reach by building a million
// nodes.
func TestCacheSlotsFor(t *testing.T) {
	for _, c := range []struct{ nodes, slots int }{
		{2, 1 << 16},
		{1<<16 - 1, 1 << 16},
		{1 << 16, 1 << 17},
		{1<<17 - 1, 1 << 17},
		{1 << 17, 1 << 18},
		{1<<19 - 1, 1 << 19},
		{1 << 19, 1 << 20},
		{1<<20 - 1, 1 << 20},
		{1 << 20, 1 << 20},
		{1 << 24, 1 << 20},
	} {
		if got := cacheSlotsFor(c.nodes); got != c.slots {
			t.Errorf("cacheSlotsFor(%d) = %d, want %d", c.nodes, got, c.slots)
		}
	}
	m := New(24)
	if got := m.Stats().CacheSlots; got != cacheSlotsFor(m.Size()) {
		t.Errorf("fresh manager: %d slots, want %d", got, cacheSlotsFor(m.Size()))
	}
	growPast(m, minCacheSlots)
	if got, want := m.Stats().CacheSlots, cacheSlotsFor(m.Size()); got != want || got != 2*minCacheSlots {
		t.Errorf("%d nodes: %d slots, want %d", m.Size(), got, want)
	}
}

// TestCacheGrowthKeepsEntries: a doubling re-places live entries rather
// than dropping them, so a repeated operation hits and returns the same
// node.
func TestCacheGrowthKeepsEntries(t *testing.T) {
	m := New(24)
	x := m.And(m.Var(1), m.Var(2))
	growPast(m, minCacheSlots)
	if st := m.Stats(); st.CacheResizes != 1 {
		t.Fatalf("cache resized %d times, want one doubling", st.CacheResizes)
	}
	before := m.Stats().CacheHits
	if y := m.And(m.Var(1), m.Var(2)); y != x {
		t.Errorf("result changed across cache resize")
	}
	if m.Stats().CacheHits <= before {
		t.Errorf("cache entries dropped on resize (no hit after growth)")
	}
}

// TestCacheSlotsSurviveCloneAndArena: a replica, by Clone or by an
// arena round trip, gets the op cache its node count calls for.
func TestCacheSlotsSurviveCloneAndArena(t *testing.T) {
	m := New(24)
	growPast(m, minCacheSlots)
	want := m.Stats().CacheSlots
	if want <= minCacheSlots {
		t.Fatalf("cache did not double: %d slots", want)
	}
	if got := m.Clone().Stats().CacheSlots; got != want {
		t.Errorf("clone: %d slots, want %d", got, want)
	}
	d, err := DecodeArena(m.AppendArena(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().CacheSlots; got != want {
		t.Errorf("decoded arena: %d slots, want %d", got, want)
	}
}

func TestStatsDelta(t *testing.T) {
	m := New(16)
	m.And(m.Var(0), m.Var(1))
	before := m.Stats()
	m.Diff(m.Var(2), m.Var(3))
	after := m.Stats()
	d := after.Delta(before)
	if d.Ops == 0 {
		t.Error("delta ops = 0 after fresh work")
	}
	if d.Ops != after.Ops-before.Ops {
		t.Errorf("delta ops = %d, want %d", d.Ops, after.Ops-before.Ops)
	}
	if d.Nodes != after.Nodes {
		t.Errorf("delta carries gauge Nodes = %d, want current %d", d.Nodes, after.Nodes)
	}
}
