package cluster

import (
	"testing"
)

func snaps3(loads ...int) []Snapshot {
	out := make([]Snapshot, len(loads))
	for i, l := range loads {
		out[i] = Snapshot{Pool: i, Workers: 4, Running: l, MaxQueue: 16}
	}
	return out
}

// TestRoundRobinDeterministicSequence pins the baseline policy: pools
// are visited 0, 1, 2, 0, 1, 2, ... regardless of load.
func TestRoundRobinDeterministicSequence(t *testing.T) {
	r := NewRoundRobin()
	want := []int{0, 1, 2, 0, 1, 2, 0, 1}
	for i, w := range want {
		// Skewed loads must not affect the stride.
		d := r.Route(Request{Key: "k"}, snaps3(9, 0, 3))
		if d.Pool != w || d.Spill {
			t.Errorf("route %d = %+v, want pool %d", i, d, w)
		}
	}
}

// TestLeastLoadedPicksMinimum pins load comparison per worker and the
// lowest-id tie-break.
func TestLeastLoadedPicksMinimum(t *testing.T) {
	r := NewLeastLoaded()
	if d := r.Route(Request{}, snaps3(5, 2, 7)); d.Pool != 1 {
		t.Errorf("min load: pool %d, want 1", d.Pool)
	}
	if d := r.Route(Request{}, snaps3(3, 3, 3)); d.Pool != 0 {
		t.Errorf("tie-break: pool %d, want 0", d.Pool)
	}
	// Per-worker, not absolute: pool 0 has more jobs but far more workers.
	snaps := []Snapshot{
		{Pool: 0, Workers: 16, Running: 4, MaxQueue: 16},
		{Pool: 1, Workers: 2, Running: 1, MaxQueue: 16},
	}
	if d := r.Route(Request{}, snaps); d.Pool != 0 {
		t.Errorf("per-worker load: pool %d, want 0 (4/16 < 1/2)", d.Pool)
	}
}

// TestLeastLoadedAvoidsFullPools pins that a pool whose admission queue
// is full is only chosen when every pool is full.
func TestLeastLoadedAvoidsFullPools(t *testing.T) {
	r := NewLeastLoaded()
	snaps := []Snapshot{
		{Pool: 0, Workers: 4, Queued: 4, Running: 0, MaxQueue: 4}, // full, lightly loaded
		{Pool: 1, Workers: 4, Queued: 2, Running: 6, MaxQueue: 4}, // heavy but open
	}
	if d := r.Route(Request{}, snaps); d.Pool != 1 {
		t.Errorf("full pool chosen: pool %d, want 1", d.Pool)
	}
	snaps[1].Queued = 4
	snaps[1].Running = 9
	if d := r.Route(Request{}, snaps); d.Pool != 0 {
		t.Errorf("all full: pool %d, want 0 (least loaded)", d.Pool)
	}
}

// TestAffinityWarmAndSpill pins the locality policy end to end: cold
// keys fall back to least-loaded, repeats stay warm, an overloaded warm
// pool spills, and a spilled key is re-homed to the spill target.
func TestAffinityWarmAndSpill(t *testing.T) {
	r := NewAffinity()

	// Cold key: least-loaded fallback, no spill flag.
	d := r.Route(Request{Key: "a"}, snaps3(2, 0, 1))
	if d.Pool != 1 || d.Spill {
		t.Fatalf("cold route = %+v, want pool 1 cold", d)
	}
	// Repeat stays on the warm pool even though it is now the most loaded.
	d = r.Route(Request{Key: "a"}, snaps3(0, 2, 0))
	if d.Pool != 1 || d.Spill {
		t.Fatalf("warm route = %+v, want pool 1", d)
	}
	// Keyless requests never consult the map.
	if d := r.Route(Request{}, snaps3(1, 1, 0)); d.Pool != 2 {
		t.Fatalf("keyless route = %+v, want pool 2", d)
	}

	// Load the warm pool past DefaultSpillOver (2 jobs/worker over the min):
	// 4 workers, 9 running jobs is 2.25/worker above the idle pools.
	d = r.Route(Request{Key: "a"}, snaps3(0, 9, 0))
	if !d.Spill || d.Pool == 1 {
		t.Fatalf("overloaded warm pool: route = %+v, want spill off pool 1", d)
	}
	rehomed := d.Pool
	// The key now belongs to the spill target.
	d = r.Route(Request{Key: "a"}, snaps3(1, 0, 1))
	if d.Pool != rehomed || d.Spill {
		t.Fatalf("re-homed route = %+v, want pool %d warm", d, rehomed)
	}

	// A warm pool whose queue is full always spills, load aside.
	r2 := NewAffinity()
	full := []Snapshot{
		{Pool: 0, Workers: 4, MaxQueue: 2},
		{Pool: 1, Workers: 4, MaxQueue: 2},
	}
	if d := r2.Route(Request{Key: "b"}, full); d.Pool != 0 {
		t.Fatalf("cold route = %+v, want pool 0", d)
	}
	full[0].Queued = 2
	if d := r2.Route(Request{Key: "b"}, full); d.Pool != 1 || !d.Spill {
		t.Fatalf("full warm pool: route = %+v, want spill to pool 1", d)
	}
	if keys := r2.Keys(); len(keys) != 1 || keys[0] != "b" {
		t.Errorf("Keys() = %v, want [b]", keys)
	}
}

// TestParsePolicy pins the policy registry.
func TestParsePolicy(t *testing.T) {
	for _, name := range Policies() {
		r, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%s): %v", name, err)
		}
		if r.Name() != name {
			t.Errorf("ParsePolicy(%s).Name() = %s", name, r.Name())
		}
	}
	if _, err := ParsePolicy("random"); err == nil {
		t.Error("ParsePolicy(random) did not fail")
	}
}
