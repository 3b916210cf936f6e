package planner

import (
	"math"
	"math/rand"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
)

func TestReservoirDeterministicAndInRange(t *testing.T) {
	objs := dataset.Uniform(10000, 2, 100, 1)
	a := SampleObjects(objs, 100, 7)
	b := SampleObjects(objs, 100, 7)
	c := SampleObjects(objs, 100, 8)
	if len(a) != 100 {
		t.Fatalf("sample size %d, want 100", len(a))
	}
	same := func(x, y []codec.Object) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].ID != y[i].ID {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different samples")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
	seen := map[int64]bool{}
	var sum float64
	for _, o := range a {
		if seen[o.ID] {
			t.Fatalf("duplicate sampled ID %d", o.ID)
		}
		seen[o.ID] = true
		if o.ID < 0 || o.ID >= 10000 {
			t.Fatalf("sampled ID %d out of range", o.ID)
		}
		sum += float64(o.ID)
	}
	// Uniformity sanity: the mean sampled ID of a uniform draw from
	// 0..9999 concentrates near 5000 (σ of the mean ≈ 290).
	if mean := sum / 100; mean < 3500 || mean > 6500 {
		t.Fatalf("sample mean ID %.0f suggests bias", mean)
	}
}

func TestReservoirShortInput(t *testing.T) {
	objs := dataset.Uniform(10, 2, 100, 1)
	got := SampleObjects(objs, 100, 1)
	if len(got) != 10 {
		t.Fatalf("sample of a short input has %d objects, want all 10", len(got))
	}
}

func TestSampleStore(t *testing.T) {
	fs := dfs.New(64)
	objs := dataset.Uniform(1000, 3, 100, 2)
	if err := dataset.ToDFS(fs, "R", objs, codec.FromR); err != nil {
		t.Fatal(err)
	}
	sample, total, err := SampleStore(fs, "R", 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1000 {
		t.Fatalf("total %d, want 1000", total)
	}
	if len(sample) != 128 {
		t.Fatalf("sample size %d, want 128", len(sample))
	}
	again, _, err := SampleStore(fs, "R", 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sample {
		if sample[i].ID != again[i].ID {
			t.Fatal("SampleStore is not deterministic per seed")
		}
	}
	if _, _, err := SampleStore(fs, "missing", 10, 1); err == nil {
		t.Fatal("sampling a missing file succeeded")
	}
}

func TestMeasureDetectsShape(t *testing.T) {
	opts := Options{K: 10, Seed: 1}
	uniform, err := Measure(dataset.Uniform(4000, 8, 100, 1), dataset.Uniform(4000, 8, 100, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := Measure(dataset.Zipf(4000, 2, 64, 100, 1), dataset.Zipf(4000, 2, 64, 100, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if zipf.ClusterSkew <= uniform.ClusterSkew {
		t.Errorf("zipf skew %.2f not above uniform skew %.2f", zipf.ClusterSkew, uniform.ClusterSkew)
	}
	// Uniform noise in 8 dims has intrinsic dimensionality near 8.
	if uniform.IntrinsicDim < 4 {
		t.Errorf("uniform 8-d intrinsic dim %.1f implausibly low", uniform.IntrinsicDim)
	}
	// A 1-d manifold embedded in 8 dims must score near 1. Positions are
	// random along the line (the two-NN estimator assumes a locally
	// Poisson sample; a perfectly regular grid degenerates it).
	rng := rand.New(rand.NewSource(4))
	line := make([]codec.Object, 3000)
	for i := range line {
		p := make(vector.Point, 8)
		tt := rng.Float64()
		for d := range p {
			p[d] = tt * float64(d+1) * 10
		}
		line[i] = codec.Object{ID: int64(i), Point: p}
	}
	ml, err := Measure(line, line, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ml.IntrinsicDim > 3 {
		t.Errorf("line-embedded intrinsic dim %.1f, want near 1", ml.IntrinsicDim)
	}
	if ml.IntrinsicDim >= uniform.IntrinsicDim {
		t.Errorf("line intrinsic dim %.1f not below uniform %.1f", ml.IntrinsicDim, uniform.IntrinsicDim)
	}
}

// pgbjPlanAt evaluates one PGBJ candidate with pinned knobs.
func pgbjPlanAt(t *testing.T, ds *DataStats, opts Options, numPivots int) Plan {
	t.Helper()
	opts = opts.withDefaults()
	st, err := buildPivotState(ds, opts, numPivots, pivot.Random)
	if err != nil {
		t.Fatal(err)
	}
	p, err := costPGBJ(ds, opts, st, pgbj.Geometric)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCostMonotonicityPivots pins the Figure-7 pivot-count trade-off as
// it manifests in this pipeline (and as the measured sweep in
// agreement_test.go confirms): growing the pivot count tightens the
// per-reducer pruning (window-dominated regime: fewer reduce-side comps)
// and tightens θ, so Theorem-7 replication does not rise — while the
// partition phase pays |R∪S|·|P| assignment distances, so *total*
// compute eventually climbs.
func TestCostMonotonicityPivots(t *testing.T) {
	objs := dataset.Uniform(4000, 4, 100, 1)
	opts := Options{K: 5, Nodes: 16, Seed: 1}
	ds, err := Measure(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	grid := []int{16, 64, 256}
	plans := make([]Plan, len(grid))
	for i, p := range grid {
		plans[i] = pgbjPlanAt(t, ds, opts, p)
	}
	// Pruning effect: the window-dominated step must cut reduce-side
	// compute substantially.
	if a, b := plans[0].Predicted.MaxReducerComps, plans[1].Predicted.MaxReducerComps; b >= a {
		t.Errorf("pivots 16 → 64: per-reducer comps %d → %d (want tighter pruning)", a, b)
	}
	for i := 1; i < len(plans); i++ {
		// θ effect: replication never rises with more pivots at a fixed
		// group count.
		if plans[i].Predicted.ReplicasS > plans[i-1].Predicted.ReplicasS {
			t.Errorf("pivots %d → %d: replication rose %d → %d",
				grid[i-1], grid[i],
				plans[i-1].Predicted.ReplicasS, plans[i].Predicted.ReplicasS)
		}
	}
	// Assignment effect: at large |P| the partition phase dominates total
	// compute.
	if a, b := plans[0].Predicted.DistComps, plans[2].Predicted.DistComps; b <= a {
		t.Errorf("pivots 16 → 256: total comps %d → %d (want the |R∪S|·|P| climb)", a, b)
	}
}

// TestCostMonotonicityK pins the Theorem-2 geometry: a larger k loosens
// θ, widening every pruning window — so predicted replication and
// distance computations must not shrink as k grows.
func TestCostMonotonicityK(t *testing.T) {
	objs := dataset.Uniform(4000, 4, 100, 1)
	var prev *Plan
	prevK := 0
	for _, k := range []int{1, 8, 32} {
		opts := Options{K: k, Nodes: 8, Seed: 1}
		ds, err := Measure(objs, objs, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := pgbjPlanAt(t, ds, opts, 64)
		if prev != nil {
			if p.Predicted.ReplicasS < prev.Predicted.ReplicasS {
				t.Errorf("k %d → %d: replication fell %d → %d",
					prevK, k, prev.Predicted.ReplicasS, p.Predicted.ReplicasS)
			}
			if p.Predicted.DistComps < prev.Predicted.DistComps {
				t.Errorf("k %d → %d: dist comps fell %d → %d",
					prevK, k, prev.Predicted.DistComps, p.Predicted.DistComps)
			}
		}
		prev, prevK = &p, k
	}
}

func TestSpillPressureRaisesScore(t *testing.T) {
	objs := dataset.Uniform(3000, 4, 100, 1)
	free := Options{K: 10, Nodes: 4, Seed: 1}
	tight := free
	tight.MemLimit = 64 << 10
	dsFree, err := Measure(objs, objs, free)
	if err != nil {
		t.Fatal(err)
	}
	a := pgbjPlanAt(t, dsFree, free, 64)
	b := pgbjPlanAt(t, dsFree, tight, 64)
	if a.Predicted.SpillBytes != 0 {
		t.Errorf("unlimited memory predicted %d spill bytes", a.Predicted.SpillBytes)
	}
	if b.Predicted.SpillBytes == 0 {
		t.Error("64KiB budget predicted no spill for a MiB-scale shuffle")
	}
	if b.Score <= a.Score {
		t.Errorf("spill pressure did not raise the score: %.3g ≤ %.3g", b.Score, a.Score)
	}
}

func TestPivotGrid(t *testing.T) {
	ds := &DataStats{RSize: 10000, RSample: make([]codec.Object, 2048)}
	opts := Options{K: 1, Nodes: 4}.withDefaults()
	grid := pivotGrid(ds, opts)
	if len(grid) != 3 {
		t.Fatalf("grid %v, want 3 entries", grid)
	}
	base := int(2 * math.Sqrt(10000))
	if grid[0] != base/2 || grid[1] != base || grid[2] != 2*base {
		t.Fatalf("grid %v, want [%d %d %d]", grid, base/2, base, 2*base)
	}
	opts.NumPivots = 77
	if got := pivotGrid(ds, opts); len(got) != 1 || got[0] != 77 {
		t.Fatalf("pinned grid %v, want [77]", got)
	}
	// Clamps: never above half the sample, never below the node count.
	opts.NumPivots = 100000
	if got := pivotGrid(ds, opts); got[0] != 1024 {
		t.Fatalf("overlarge pivots clamped to %d, want 1024", got[0])
	}
	opts.NumPivots = 1
	opts.Nodes = 8
	if got := pivotGrid(ds, opts); got[0] != 8 {
		t.Fatalf("undersized pivots clamped to %d, want 8", got[0])
	}
}

func TestPlansDeterministicAndRanked(t *testing.T) {
	objs := dataset.Gaussian(2000, 4, 8, 0, 100, 3)
	opts := Options{K: 10, Nodes: 4, Seed: 9}
	ds, err := Measure(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Plans(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plans(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("plan counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Config() != b[i].Config() || a[i].Score != b[i].Score {
			t.Fatalf("rank %d differs across identical calls: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i].Score < a[i-1].Score {
			t.Fatalf("plans not sorted: score[%d]=%.3g < score[%d]=%.3g", i, a[i].Score, i-1, a[i-1].Score)
		}
	}
	if best := Best(a, false); best == nil || best.Approximate {
		t.Fatalf("Best returned %v", best)
	}
}

func TestMeasureErrors(t *testing.T) {
	objs := dataset.Uniform(10, 2, 100, 1)
	if _, err := Measure(nil, objs, Options{K: 1}); err == nil {
		t.Error("empty R accepted")
	}
	if _, err := Measure(objs, nil, Options{K: 1}); err == nil {
		t.Error("empty S accepted")
	}
	ds, err := Measure(objs, objs, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plans(ds, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

// BenchmarkPlans prices the full candidate grid for a uniform d=2 R×S
// pair of 50k objects each, whose pivot grid reaches p=894: the planning
// cost an Auto join pays before it runs.
func BenchmarkPlans(b *testing.B) {
	r := dataset.Uniform(50000, 2, 100, 1)
	s := dataset.Uniform(50000, 2, 100, 2)
	opts := Options{K: 10, Nodes: 8}
	ds, err := Measure(r, s, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plans(ds, opts); err != nil {
			b.Fatal(err)
		}
	}
}
