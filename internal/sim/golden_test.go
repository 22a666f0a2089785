package sim_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/parlab/adws/internal/sim"
	"github.com/parlab/adws/internal/topology"
	"github.com/parlab/adws/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_runresult.txt")

const goldenFile = "testdata/golden_runresult.txt"

// allFields drops RunResult's String method, so %+v prints every field
// instead of the rounded one-line summary.
type allFields sim.RunResult

// TestGoldenRunResults pins every scheduling decision the simulator makes:
// the whole RunResult (time, busy/idle/overhead, misses, remote accesses,
// steals, attempts, migrations, tasks, ties, flattens) of a cold and a
// warm run for 5 modes × 2 machines × every registered benchmark × 2 seeds
// must equal the committed file exactly. Floats are printed in their
// shortest round-tripping form, so equal text means equal bits. The
// quicksort, matmul and heat2d lines were generated before the scheduler
// core moved into internal/sched, the other benchmarks' lines before their
// task-graph builders were merged; a refactor that holds decisions fixed
// never needs -update.
func TestGoldenRunResults(t *testing.T) {
	machines := []struct {
		name string
		m    *topology.Machine
	}{
		{"twolevel16", topology.TwoLevel16()},
		{"threelevel64", topology.ThreeLevel64()},
	}
	var b strings.Builder
	for _, mc := range machines {
		bytes := mc.m.AggregateCapacity(1) / 4
		for _, w := range workload.Registry {
			bench, build := w.Name, w.Build
			for _, seed := range []uint64{1, 2} {
				inst := build(bytes, seed)
				for _, mode := range sim.Modes {
					eng := sim.NewEngine(sim.Config{Machine: mc.m, Mode: mode, Seed: seed})
					root, _ := inst.Prepare(eng.Memory())
					for _, rep := range []string{"cold", "warm"} {
						fmt.Fprintf(&b, "%s %s seed=%d %s %+v\n", mc.name, bench, seed, rep, allFields(eng.Run(root)))
					}
				}
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/sim -run TestGoldenRunResults -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d result lines, golden file has %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
}
