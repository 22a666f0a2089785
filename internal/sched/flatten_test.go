package sched

import (
	"testing"

	"github.com/parlab/adws/internal/topology"
)

// flattenRow flattens a group whose range over a level's row of caches
// has integer endpoints i and j.
func flattenRow(m *topology.Machine, size int64, level, i, j int) (int, []*topology.Cache) {
	row := m.LevelCaches(level)
	span := Axis{N: len(row)}.FlattenSpan(Range{X: float64(i), Y: float64(j)}, row)
	return FlattenOverCaches(m, size, level, span)
}

func TestFlattenOakbridge(t *testing.T) {
	m := topology.OakbridgeCX()
	l3 := int64(38_500 * 1024)

	// Fits in the aggregate L3 (2 sockets): flatten straight to the leaf
	// level and run single-level ADWS over all 56 workers (§5).
	lnext, caches := flattenRow(m, 64<<20, 1, 0, 2)
	if lnext != 2 {
		t.Fatalf("lnext = %d, want 2", lnext)
	}
	if len(caches) != 56 {
		t.Fatalf("flattened caches = %d, want 56", len(caches))
	}

	// Larger than aggregate L3: no flattening, keep scheduling at level 1.
	lnext, caches = flattenRow(m, 100<<20, 1, 0, 2)
	if lnext != 1 || caches != nil {
		t.Fatalf("lnext = %d caches=%v, want 1,nil", lnext, caches)
	}

	// Fits in one socket's L3 (range covering only cache 1): flatten over
	// that socket's 28 private caches.
	lnext, caches = flattenRow(m, l3/2, 1, 1, 2)
	if lnext != 2 {
		t.Fatalf("single-socket lnext = %d, want 2", lnext)
	}
	if len(caches) != 28 {
		t.Fatalf("single-socket flattened caches = %d, want 28", len(caches))
	}
	if caches[0].FirstWorker() != 28 {
		t.Errorf("flattened caches start at worker %d, want 28", caches[0].FirstWorker())
	}
}

func TestFlattenThreeLevels(t *testing.T) {
	m := topology.ThreeLevel64()
	// Socket LLC 64 MB ×2, cluster 8 MB ×8, private 1 MB ×64.

	// 100 MB fits in 2×64 MB sockets but not in 8×8 MB clusters: flatten
	// to the cluster level (level 2) — below the level that holds the set.
	lnext, caches := flattenRow(m, 100<<20, 1, 0, 2)
	if lnext != 2 {
		t.Fatalf("lnext = %d, want 2", lnext)
	}
	if len(caches) != 8 {
		t.Fatalf("flattened caches = %d, want 8 clusters", len(caches))
	}

	// 40 MB fits in sockets and clusters but not in 64×1 MB privates:
	// flatten to the private level anyway (level 3 is the deepest).
	lnext, caches = flattenRow(m, 40<<20, 1, 0, 2)
	if lnext != 3 {
		t.Fatalf("lnext = %d, want 3", lnext)
	}
	if len(caches) != 64 {
		t.Fatalf("flattened caches = %d, want 64", len(caches))
	}

	// The paper's sub-hierarchy case (§5): a task group held by cluster
	// caches 2..3 (range [2.x, 4.0) at level 2) whose size fits their
	// combined capacity flattens over their 16 private caches.
	lnext, caches = flattenRow(m, 12<<20, 2, 2, 4)
	if lnext != 3 {
		t.Fatalf("sub-hierarchy lnext = %d, want 3", lnext)
	}
	if len(caches) != 16 {
		t.Fatalf("sub-hierarchy caches = %d, want 16", len(caches))
	}
	if caches[0].FirstWorker() != 16 {
		t.Errorf("sub-hierarchy caches start at worker %d, want 16", caches[0].FirstWorker())
	}
}

func TestFlattenEdgeCases(t *testing.T) {
	m := topology.TwoLevel16()
	// Already at the leaf level: nothing to flatten.
	if lnext, caches := flattenRow(m, 1, 2, 0, 1); lnext != 2 || caches != nil {
		t.Errorf("leaf-level flatten = %d,%v", lnext, caches)
	}
	// No candidates: nothing to flatten.
	if lnext, caches := FlattenOverCaches(m, 1, 1, nil); lnext != 1 || caches != nil {
		t.Errorf("empty candidate flatten = %d,%v", lnext, caches)
	}
	// j <= i (a range within one cache): candidate set is just cache i
	// (footnote 5 excludes cache j).
	lnext, caches := flattenRow(m, 4<<20, 1, 2, 2)
	if lnext != 2 || len(caches) != 4 {
		t.Errorf("single-cache flatten = %d, %d caches; want 2, 4", lnext, len(caches))
	}
}
