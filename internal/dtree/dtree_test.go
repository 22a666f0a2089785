package dtree

import (
	"reflect"
	"testing"

	"github.com/parlab/adws"
	"github.com/parlab/adws/internal/dataset"
)

func testPool(t *testing.T, s adws.Scheduler) *adws.Pool {
	t.Helper()
	p, err := adws.NewPool(
		adws.WithScheduler(s),
		adws.WithHierarchy([]adws.CacheLevel{
			{Fanout: 2, CapacityBytes: 8 << 20},
			{Fanout: 4, CapacityBytes: 1 << 20},
		}, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func smallConfig() Config {
	return Config{MaxDepth: 10, CutoffRows: 200, LoopCutoffRows: 500, Bins: 24, MinLeaf: 4}
}

func TestTrainAccuracyBeatsChance(t *testing.T) {
	// The paper validates 72% accuracy on HIGGS vs 52% random (§6.2); the
	// synthetic dataset must reproduce "well above chance".
	ds := dataset.Synthetic(30000, dataset.DefaultAttrs, 7)
	train, test := ds.Split(5000)
	p := testPool(t, adws.ADWS)
	tree := Train(p, ds, train, smallConfig())
	acc := tree.Accuracy(ds, test)
	if acc < 0.62 {
		t.Errorf("accuracy = %.3f, want >= 0.62 (chance ~0.5)", acc)
	}
	if tree.Nodes < 10 {
		t.Errorf("tree has only %d nodes", tree.Nodes)
	}
	t.Logf("accuracy %.3f over %d nodes", acc, tree.Nodes)
}

func TestSchedulersAgreeOnTree(t *testing.T) {
	// Training is deterministic given the dataset, so every scheduler must
	// produce the same tree — the almost-deterministic scheduling must not
	// leak into results. So must a recursion cutoff above the loop cutoff,
	// which Train clamps: unclamped, a serial node would need the pool.
	ds := dataset.Synthetic(8000, 12, 3)
	train, test := ds.Split(2000)
	var trees []*Tree
	for _, s := range []adws.Scheduler{adws.WorkStealing, adws.ADWS, adws.MultiLevelWS, adws.MultiLevelADWS} {
		trees = append(trees, Train(testPool(t, s), ds, train, smallConfig()))
	}
	big := smallConfig()
	big.CutoffRows = 2 * big.LoopCutoffRows
	trees = append(trees, Train(testPool(t, adws.ADWS), ds, train, big))
	for i, tree := range trees[1:] {
		if !reflect.DeepEqual(tree, trees[0]) {
			t.Errorf("run %d: acc/nodes = %.4f/%d, want the tree of %.4f/%d",
				i+1, tree.Accuracy(ds, test), tree.Nodes, trees[0].Accuracy(ds, test), trees[0].Nodes)
		}
	}
}

func TestPartitionParallelMatchesSerial(t *testing.T) {
	ds := dataset.Synthetic(5000, 4, 11)
	rows := make([]int32, ds.Rows)
	for i := range rows {
		rows[i] = int32(i)
	}
	// Serial reference: left rows, then right rows, each in input order.
	var bufS []int32
	nlS := 0
	for _, left := range []bool{true, false} {
		for _, r := range rows {
			if (ds.Values[2][r] < 0.1) == left {
				bufS = append(bufS, r)
			}
		}
		if left {
			nlS = len(bufS)
		}
	}

	p := testPool(t, adws.ADWS)
	tr := &trainer{cfg: smallConfig(), ds: ds, rowBytes: int64(ds.Attrs) * 8}
	bufP := make([]int32, len(rows))
	var nlP int
	p.Run(func(c *adws.Ctx) {
		nlP = tr.partition(c, rows, bufP, 2, 0.1)
	})
	if nlP != nlS {
		t.Fatalf("parallel nl = %d, serial nl = %d", nlP, nlS)
	}
	for i := range bufS {
		if bufS[i] != bufP[i] {
			t.Fatalf("partition differs at %d: %d vs %d (stability violated)", i, bufP[i], bufS[i])
		}
	}
	// Every left row is < threshold, every right row >= threshold.
	for i, r := range bufP[:nlP] {
		if ds.Values[2][r] >= 0.1 {
			t.Fatalf("left row %d (idx %d) has value %v >= thr", i, r, ds.Values[2][r])
		}
	}
	for i, r := range bufP[nlP:] {
		if ds.Values[2][r] < 0.1 {
			t.Fatalf("right row %d (idx %d) has value %v < thr", i, r, ds.Values[2][r])
		}
	}
}

func TestParallelHistMatchesSerial(t *testing.T) {
	ds := dataset.Synthetic(4000, 3, 5)
	rows := make([]int32, ds.Rows)
	for i := range rows {
		rows[i] = int32(i)
	}
	tr := &trainer{cfg: smallConfig(), ds: ds, rowBytes: int64(ds.Attrs) * 8}
	tr.attrBounds = make([][2]float64, ds.Attrs)
	for a := 0; a < ds.Attrs; a++ {
		lo, hi := tr.attrRange(a)
		tr.attrBounds[a] = [2]float64{lo, hi}
	}

	serial := newHist(tr.cfg.Bins, tr.attrBounds[1][0], tr.attrBounds[1][1])
	for _, r := range rows {
		serial.add(ds.Values[1][r], ds.Labels[r])
	}

	p := testPool(t, adws.MultiLevelADWS)
	var par *hist
	p.Run(func(c *adws.Ctx) { par = tr.parallelHist(c, rows, 1) })
	for cl := 0; cl < 2; cl++ {
		for b := range serial.counts[cl] {
			if serial.counts[cl][b] != par.counts[cl][b] {
				t.Fatalf("hist[%d][%d]: serial %d vs parallel %d",
					cl, b, serial.counts[cl][b], par.counts[cl][b])
			}
		}
	}
}

func TestHistBestThreshold(t *testing.T) {
	// A perfectly separable histogram: class 0 in low bins, class 1 high.
	h := newHist(8, 0, 8)
	for i := 0; i < 100; i++ {
		h.add(1.0, 0)
		h.add(6.0, 1)
	}
	thr, gini, ok := h.bestThreshold()
	if !ok {
		t.Fatal("no threshold found")
	}
	if thr <= 1.0 || thr > 6.0 {
		t.Errorf("threshold = %v, want in (1, 6]", thr)
	}
	if gini > 1e-9 {
		t.Errorf("gini = %v, want ~0 for separable data", gini)
	}

	// Degenerate: empty histogram.
	if _, _, ok := newHist(4, 0, 1).bestThreshold(); ok {
		t.Error("empty histogram produced a threshold")
	}
}

func TestPredictOnPureLeaf(t *testing.T) {
	tree := &Tree{Root: &Node{Prob: 0.9}}
	ds := dataset.Synthetic(10, 2, 1)
	if got := tree.Predict(ds, 0); got != 1 {
		t.Errorf("Predict = %d, want 1", got)
	}
	tree.Root.Prob = 0.1
	if got := tree.Predict(ds, 0); got != 0 {
		t.Errorf("Predict = %d, want 0", got)
	}
	if acc := tree.Accuracy(ds, nil); acc != 0 {
		t.Errorf("Accuracy of no rows = %v", acc)
	}
}
