package sim

import "github.com/parlab/adws/internal/topology"

// SerialResult is the outcome of a serial reference execution.
type SerialResult struct {
	Time                        float64
	PrivateMisses, SharedMisses int64
	Accesses                    int64
}

// RunSerial executes the body depth-first on worker 0 with the machine's
// cache model, the way the paper measures serial reference times and the
// serial miss counts of Fig. 18 (run with --localalloc on a fixed core).
// The engine must be configured with the same machine and cost model as
// the parallel runs; its scheduler mode is irrelevant for serial
// execution. Cache contents persist across calls.
func RunSerial(m *topology.Machine, costs CostModel, numa NUMAPolicy, reps int, makeBody func(mem *Memory) Body) SerialResult {
	if reps < 1 {
		reps = 1
	}
	cm := costs
	if cm == (CostModel{}) {
		cm = DefaultCosts()
	}
	mem := NewMemory(m.NumNUMANodes(), numa)
	hier := NewHierarchy(m, mem, &cm)
	body := makeBody(mem)

	var res SerialResult
	var exec func(b Body)
	var total float64
	exec = func(b Body) {
		bb := &B{}
		if b != nil {
			b(bb)
		}
		for _, st := range bb.steps {
			if st.group == nil {
				total += st.work + hier.AccessRange(0, st.accesses)
				continue
			}
			for _, c := range st.group.Children {
				exec(c.Body)
			}
		}
	}
	for rep := 0; rep < reps; rep++ {
		if rep == reps-1 {
			// Measure only the final (warm) repetition, like the paper's
			// warm-up discard.
			hier.ResetCounters()
			total = 0
		}
		exec(body)
	}
	res.Time = total
	res.PrivateMisses = hier.MissesAtPrivate()
	res.SharedMisses = hier.MissesAtShared()
	res.Accesses = hier.Accesses
	return res
}
