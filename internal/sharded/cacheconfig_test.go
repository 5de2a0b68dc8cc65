package sharded

import (
	"context"
	"testing"

	"yardstick/internal/bdd"
)

// TestReplicasInheritCacheConfig: replica spaces must be sized like the
// canonical space, so a canonical network tuned with a larger op cache
// gets the same treatment on every worker.
func TestReplicasInheritCacheConfig(t *testing.T) {
	canonical, err := fatTreeBuilder()
	if err != nil {
		t.Fatal(err)
	}
	want := bdd.CacheConfig{MinSlots: 1 << 16, MaxSlots: 1 << 18}
	canonical.Space.SetCacheConfig(want)

	e, err := New(context.Background(), canonical, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range e.replicas {
		if got := r.Space.CacheConfig(); got != want {
			t.Errorf("replica %d: cache config %+v, want %+v", i, got, want)
		}
		if got := r.Space.EngineStats().CacheSlots; got < 1<<16 {
			t.Errorf("replica %d: cache %d slots, want >= MinSlots %d", i, got, 1<<16)
		}
	}
}
