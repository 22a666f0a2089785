package workload

import "github.com/parlab/adws/internal/sim"

// SPH is the paper's smoothed-particle-hydrodynamics benchmark: the force
// calculation of a 3D dam-breaking simulation over an octree (ported from
// FDPS in the paper). The octree partitions space non-uniformly — a dam
// break concentrates particles — so the computation graph is irregular.
// Work hints are the octree nodes' particle counts, which the paper calls
// "roughly estimated": the actual interaction cost per leaf varies with
// local density, so the hints are systematically imprecise and dynamic
// load balancing must absorb the error.
//
// Each leaf task computes short-range interactions: it sweeps its own
// particles twice and reads one neighbouring leaf's particles (the
// effective-radius overlap), giving SPH modest hierarchical locality.
func SPH(bytes int64, seed uint64) Instance {
	return SPHIters(bytes, sphDefaultIters, seed)
}

// SPHIters builds an SPH instance with an explicit iteration count (the
// paper reports the time of five force-calculation iterations).
func SPHIters(bytes int64, iters int, seed uint64) Instance {
	return Instance{
		Name:  "sph",
		Bytes: bytes,
		Prepare: func(mem *sim.Memory) (sim.Body, sim.Body) {
			particles := mem.Alloc("sph.particles", bytes)
			sh := buildSPHShape(particles, seed, 1, 0)
			root := func(b *sim.B) {
				for it := 0; it < iters; it++ {
					sphForce(sh)(b)
				}
			}
			init := parFor(sphCutoff, 1, 500, particles)
			return root, init
		},
	}
}

const (
	sphDefaultIters = 5
	// sphCutoff is the leaf granularity in bytes: a leaf's particle data.
	// (The paper's 32-particles-per-leaf octree is far below chunk
	// granularity; a leaf task here stands for a subtree of such leaves.)
	sphCutoff = 64 << 10
	// sphComputePerChunk is the base interaction compute per chunk-pass.
	sphComputePerChunk = 4000
)

// sphShape is one octree node: its particle segment, its children (up to
// 8), the count-based work HINT, and the density-dependent ACTUAL work
// factor that makes the hints imprecise.
type sphShape struct {
	seg      sim.Segment
	hint     float64 // particle count (the programmer-visible hint)
	actual   float64 // true relative cost (hint × local density factor)
	density  float64
	children []*sphShape
	neighbor *sphShape // one adjacent leaf whose particles are also read
}

func buildSPHShape(seg sim.Segment, seed, path uint64, depth int) *sphShape {
	n := &sphShape{seg: seg, hint: float64(seg.Bytes())}
	r := nodeRNG(seed, path)
	n.density = 0.5 + 1.5*r.Float64() // dam-break density variation
	if seg.Bytes() <= sphCutoff || seg.NumChunks() <= 1 || depth > 40 {
		n.actual = n.hint * n.density
		return n
	}
	// Octree split: up to 8 children with non-uniform occupancy. Some
	// octants are empty in a dam break; draw 8 weights, drop near-empty
	// ones, normalize the rest over the chunk-aligned segment.
	weights := make([]float64, 8)
	total := 0.0
	for i := range weights {
		u := r.Float64()
		w := u * u // skewed occupancy
		if w < 0.02 {
			w = 0
		}
		weights[i] = w
		total += w
	}
	if total == 0 {
		weights[0], total = 1, 1
	}
	chunks := int64(seg.NumChunks())
	// Compute chunk shares for the occupied octants, then hand any
	// rounding remainder to the heaviest one so children exactly cover the
	// parent's particles.
	type octant struct {
		idx   int
		share int64
	}
	var occ []octant
	assigned := int64(0)
	heaviest := -1
	for i, w := range weights {
		if w == 0 {
			continue
		}
		share := int64(float64(chunks) * w / total)
		if share < 1 {
			share = 1
		}
		occ = append(occ, octant{idx: i, share: share})
		assigned += share
		if heaviest < 0 || share > occ[heaviest].share {
			heaviest = len(occ) - 1
		}
	}
	// Shrink if over-assigned (minimum-one-chunk inflation), grow the
	// heaviest if under-assigned.
	for k := len(occ) - 1; k >= 0 && assigned > chunks; k-- {
		cut := assigned - chunks
		avail := occ[k].share - 1
		if avail > cut {
			avail = cut
		}
		occ[k].share -= avail
		assigned -= avail
	}
	if assigned > chunks {
		occ = occ[:1]
		occ[0].share = chunks
		assigned = chunks
		heaviest = 0
	}
	occ[heaviest].share += chunks - assigned
	if len(occ) == 1 {
		// A single occupied octant would recurse on the identical segment;
		// treat this node as a leaf instead.
		n.actual = n.hint * n.density
		return n
	}

	used := int64(0)
	var prev *sphShape
	for _, o := range occ {
		if o.share <= 0 {
			continue
		}
		child := buildSPHShape(seg.Slice(used*sim.ChunkSize, o.share*sim.ChunkSize),
			seed, path*8+uint64(o.idx)+1, depth+1)
		child.neighbor = prev
		prev = child
		n.children = append(n.children, child)
		used += o.share
	}
	for _, c := range n.children {
		n.actual += c.actual
	}
	if len(n.children) == 0 {
		n.actual = n.hint * n.density
	}
	return n
}

// sphForce builds the force-calculation traversal for one iteration.
func sphForce(sh *sphShape) sim.Body {
	return func(b *sim.B) {
		if len(sh.children) == 0 {
			specs := []sim.AccessSpec{{Seg: sh.seg, Passes: 2}}
			if sh.neighbor != nil {
				// Short-range interactions with the adjacent leaf.
				specs = append(specs, sim.AccessSpec{Seg: sh.neighbor.seg, Passes: 1})
			}
			b.Compute(sphComputePerChunk*sh.density*float64(sh.seg.NumChunks()), specs...)
			return
		}
		var kids []sim.ChildSpec
		var hintSum float64
		for _, c := range sh.children {
			cc := c
			kids = append(kids, sim.ChildSpec{
				Work: cc.hint, // rough, count-based hint (not cc.actual)
				Size: cc.seg.Bytes(),
				Body: sphForce(cc),
			})
			hintSum += cc.hint
		}
		b.Fork(sim.GroupSpec{Work: hintSum, Size: sh.seg.Bytes(), Children: kids})
	}
}
