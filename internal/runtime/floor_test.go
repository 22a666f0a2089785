package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	gort "runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parlab/adws/internal/obs"
	"github.com/parlab/adws/internal/sched"
	"github.com/parlab/adws/internal/topology"
)

// floorDAG is a seeded random fork-join computation shaped like the paper's
// kernels: every node is a flat group (a barrier over blocks), a serial
// step, then a recursive group — with hints that are exact, skewed onto one
// child, or plain wrong. The shape is a pure function of (seed, path), so
// the leaf count is known without running it.
type floorDAG struct {
	seed   uint64
	leaves atomic.Int64
}

type floorNode struct {
	blocks, kids int
	hints        int   // 0 exact, 1 skewed, 2 wrong total
	size         int64 // working-set hint (ties and flattens under ML-ADWS)
}

func (d *floorDAG) node(depth int, path uint64) floorNode {
	r := sched.NewRNG(d.seed*7919+path, depth)
	n := floorNode{blocks: 1 + r.Intn(6), kids: 1 + r.Intn(3), hints: r.Intn(3)}
	if r.Intn(2) == 0 {
		n.size = int64(1+r.Intn(16)) << 20
	}
	return n
}

func (d *floorDAG) count(depth int, path uint64) int64 {
	n := d.node(depth, path)
	total := int64(n.blocks)
	for k := 0; k < n.kids; k++ {
		if depth == 0 {
			total++
		} else {
			total += d.count(depth-1, path*13+uint64(k)+1)
		}
	}
	return total
}

// hint returns child k's work hint and the group total for n children.
func (n floorNode) hint(k, children int) (work, total float64) {
	switch n.hints {
	case 1: // everything claimed to be in the first child
		if k == 0 {
			return 1000, 1000 + float64(children-1)*0.001
		}
		return 0.001, 1000 + float64(children-1)*0.001
	case 2: // the total is a fraction of what the children add up to
		return 1, 0.25 * float64(children)
	}
	return 1, float64(children)
}

func (d *floorDAG) run(c *Ctx, depth int, path uint64) {
	n := d.node(depth, path)
	_, total := n.hint(0, n.blocks)
	g := c.Group(GroupHint{Work: total, Size: n.size})
	for k := 0; k < n.blocks; k++ {
		w, _ := n.hint(k, n.blocks)
		g.Spawn(w, func(*Ctx) {
			d.leaves.Add(1)
			gort.Gosched()
		})
	}
	g.Wait()
	gort.Gosched() // the serial step between the barrier and the recursion
	_, total = n.hint(0, n.kids)
	g = c.Group(GroupHint{Work: total, Size: n.size / 2})
	for k := 0; k < n.kids; k++ {
		k := k
		w, _ := n.hint(k, n.kids)
		g.Spawn(w, func(c *Ctx) {
			if depth == 0 {
				d.leaves.Add(1)
				return
			}
			d.run(c, depth-1, path*13+uint64(k)+1)
		})
	}
	g.Wait()
}

// TestDepthFloorLiveness stresses the claim DESIGN.md argues: a helping wait
// that runs only tasks at or below its own depth cannot deadlock. Three
// concurrent roots over overlapping ranges run random barrier DAGs on 2, 3
// and 4 workers under both ADWS policies; a case that misses its deadline
// dumps the flight recorder and the scheduler snapshot before failing.
func TestDepthFloorLiveness(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	const caseDeadline = 30 * time.Second
	ranges := [][2]float64{{0, 1}, {0, 0.6}, {0.3, 1}}
	for _, pol := range []Policy{ADWS, MLADWS} {
		for workers := 2; workers <= 4; workers++ {
			shared := 2 - workers%2 // 2x1, 1x3, 2x2
			m := topology.MustNew("floor", []topology.Level{
				{Fanout: shared, Capacity: 8 << 20},
				{Fanout: workers / shared, Capacity: 512 << 10},
			}, 0)
			fr := obs.NewRecorder(obs.Config{Workers: workers})
			// Closed below, not by t.Cleanup: Close would wait for ever on the
			// workers of a case that failed by deadlocking.
			p := NewPool(Config{Machine: m, Policy: pol, Seed: 42, Flight: fr})
			for seed := 1; seed <= seeds; seed++ {
				dags := make([]*floorDAG, len(ranges))
				jobs := make([]*RootJob, len(ranges))
				for i, r := range ranges {
					d := &floorDAG{seed: uint64(seed*len(ranges) + i)}
					j, err := p.SubmitRoot(func(c *Ctx) { d.run(c, 4, 1) }, r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					dags[i], jobs[i] = d, j
				}
				deadline := time.After(caseDeadline)
				for _, j := range jobs {
					select {
					case <-j.Done():
					case <-deadline:
						snap := p.SchedSnapshot()
						t.Fatalf("%v, %d workers, seed %d: job %d still running after %v; flight recorder dump in %s\n%+v",
							pol, workers, seed, j.ID(), caseDeadline, writeFloorDump(t, fr.Dump("depth-floor liveness", -1, &snap)), snap.Workers)
					}
				}
				for i, d := range dags {
					if got, want := d.leaves.Load(), d.count(4, 1); got != want {
						t.Fatalf("%v, %d workers, seed %d, root %d: %d leaves, want %d", pol, workers, seed, i, got, want)
					}
				}
			}
			p.Close()
		}
	}
}

// writeFloorDump writes d where scripts/check.sh collects dumps ($ADWS_FR_DIR)
// or to the system temp directory, and returns the path.
func writeFloorDump(t *testing.T, d *obs.Dump) string {
	dir := os.Getenv("ADWS_FR_DIR")
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("depth-floor-liveness-%d.json", d.Seq))
	f, err := os.Create(path)
	if err != nil {
		t.Logf("flight recorder dump not written: %v", err)
		return "(unwritten)"
	}
	defer f.Close()
	if err := d.WriteJSON(f); err != nil {
		t.Logf("flight recorder dump incomplete: %v", err)
	}
	return path
}
