package sched

// MaxStealTries bounds the victims an idle entity probes in one steal
// round before it gives up and backs off or parks.
const MaxStealTries = 4

// stealTries caps the probes of a round at the number of candidate victims.
func stealTries(victims int) int {
	if victims < MaxStealTries {
		return victims
	}
	return MaxStealTries
}

// UniformTries returns the number of probes of one conventional
// work-stealing round in a domain of n entities (0: nobody to steal from).
func UniformTries(n int) int { return stealTries(n - 1) }

// UniformVictim draws one of the n-1 entities other than self uniformly
// (conventional random work stealing). n must be at least 2.
//
//adws:hotpath
func UniformVictim(rng *RNG, n, self int) int {
	v := rng.Intn(n - 1)
	if v >= self {
		v++
	}
	return v
}

// StealPlan is one ADWS steal round of an idle entity (paper Fig. 11 lines
// 39–50): the steal range of the topmost dominant group, with MinDepth
// raised to the caller's floor, and the number of probes to make. The
// substrate loops Tries times over Draw and performs its own pops, locks,
// cost accounting and events.
type StealPlan struct {
	StealRange
	// Self is the thief's logical index.
	Self int
	// Tries is the number of victims to probe this round.
	Tries int

	axis     Axis
	selfPhys int
	victims  int
}

// PlanSteal plans a steal round for physical entity self of an ADWS domain
// with axis a. anchor is the cross-worker group of the last task the
// entity executed, its position in the group tree (§3.2). minDepth is the
// caller's own floor on stealable depths (a helping wait passes its
// group's child depth; 0 otherwise). ok is false when the entity must not
// steal: it is alone, or no dominant group dominates it, so that
// deterministically migrated tasks are not stolen too soon (line 40).
func PlanSteal(anchor *GroupNode, a Axis, self, minDepth int) (plan StealPlan, ok bool) {
	if anchor == nil || a.N <= 1 {
		return StealPlan{}, false
	}
	logical := a.LogicalOf(self)
	sr, ok := CurrentStealRange(anchor, logical)
	if !ok {
		return StealPlan{}, false
	}
	nv := sr.NumVictims(logical)
	if nv <= 0 {
		return StealPlan{}, false
	}
	if minDepth > sr.MinDepth {
		sr.MinDepth = minDepth
	}
	return StealPlan{StealRange: sr, Self: logical, Tries: stealTries(nv),
		axis: a, selfPhys: self, victims: nv}, true
}

// StealVictim is one probe of a steal round.
type StealVictim struct {
	// Logical and Physical are the victim's indices on the domain axis.
	Logical, Physical int
	// Migration and Primary report which of the victim's queue families
	// the thief may take from, to be tried in that order. Both are false
	// when the cyclic wrap made the draw collide with the thief itself;
	// the probe still counts as an attempt.
	Migration, Primary bool
}

// Draw picks the next victim uniformly from the steal range. The migration
// queues of entity Low hold tasks migrated from outside the range and the
// primary queues of entity High hold tasks outside [x, y), so neither may
// be stolen from.
//
//adws:hotpath
func (p *StealPlan) Draw(rng *RNG) StealVictim {
	v := p.Victim(p.Self, rng.Intn(p.victims))
	vp := p.axis.Physical(v)
	if vp == p.selfPhys {
		return StealVictim{Logical: v, Physical: vp}
	}
	return StealVictim{Logical: v, Physical: vp,
		Migration: p.MigrationStealable(v), Primary: p.PrimaryStealable(v)}
}
