package sim_test

import (
	"strings"
	"testing"

	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/workload"
)

// BenchmarkEngineRun is the host cost of one configuration of the bench
// `sim` workload: TwoLevel16 Quicksort at a quarter of the aggregate
// level-1 capacity, simulated cold and then warm on a fresh engine per op,
// construction included. Profile the hot loop with
//
//	go test ./internal/sim -run '^$' -bench EngineRun -cpuprofile cpu.prof
func BenchmarkEngineRun(b *testing.B) {
	m := topology.TwoLevel16()
	inst := workload.Quicksort(m.AggregateCapacity(1)/4, 1)
	for _, mode := range sim.Modes {
		b.Run(strings.ToLower(mode.String()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(sim.Config{Machine: m, Mode: mode, Seed: 1})
				root, _ := inst.Prepare(eng.Memory())
				eng.Run(root)
				eng.Run(root)
			}
		})
	}
}
