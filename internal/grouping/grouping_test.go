package grouping

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

type fixture struct {
	pp     *voronoi.Partitioner
	sum    *voronoi.Summary
	thetas []float64
	sParts [][]codec.Tagged
	rObjs  []codec.Object
	sObjs  []codec.Object
}

func makeFixture(t testing.TB, seed int64, nObjs, nPivots, dim, k int) *fixture {
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, idBase int64) []codec.Object {
		out := make([]codec.Object, n)
		for i := range out {
			p := make(vector.Point, dim)
			for d := range p {
				p[d] = rng.Float64() * 100
			}
			out[i] = codec.Object{ID: idBase + int64(i), Point: p}
		}
		return out
	}
	rObjs := mk(nObjs, 0)
	sObjs := mk(nObjs, int64(nObjs))
	pivots := make([]vector.Point, nPivots)
	for i := range pivots {
		pivots[i] = rObjs[rng.Intn(len(rObjs))].Point.Clone()
	}
	pp := voronoi.NewPartitioner(pivots, vector.L2)
	b := voronoi.NewSummaryBuilder(nPivots, k)
	for _, g := range pp.Partition(rObjs, codec.FromR, nil) {
		for _, o := range g {
			b.Add(o)
		}
	}
	sParts := pp.Partition(sObjs, codec.FromS, nil)
	for _, g := range sParts {
		for _, o := range g {
			b.Add(o)
		}
	}
	for _, g := range sParts {
		voronoi.SortByPivotDist(g)
	}
	sum := b.Finalize()
	return &fixture{pp: pp, sum: sum, thetas: Thetas(sum, pp), sParts: sParts, rObjs: rObjs, sObjs: sObjs}
}

func (f *fixture) sDists() [][]float64 {
	out := make([][]float64, len(f.sParts))
	for i, g := range f.sParts {
		ds := make([]float64, len(g))
		for j, o := range g {
			ds[j] = o.PivotDist
		}
		out[i] = ds
	}
	return out
}

func checkCover(t *testing.T, res *Result, numPartitions int) {
	t.Helper()
	seen := make([]int, numPartitions)
	for g, parts := range res.Groups {
		for _, i := range parts {
			seen[i]++
			if res.GroupOf[i] != g {
				t.Fatalf("GroupOf[%d] = %d, want %d", i, res.GroupOf[i], g)
			}
		}
		if !sort.IntsAreSorted(parts) {
			t.Fatalf("group %d members not sorted: %v", g, parts)
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("partition %d appears in %d groups", i, n)
		}
	}
}

func TestGeometricCoversAllPartitions(t *testing.T) {
	f := makeFixture(t, 1, 400, 24, 3, 3)
	res, err := Geometric(f.pp, f.sum, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumGroups() != 6 {
		t.Fatalf("NumGroups = %d", res.NumGroups())
	}
	checkCover(t, res, 24)
}

func TestGreedyCoversAllPartitions(t *testing.T) {
	f := makeFixture(t, 2, 400, 24, 3, 3)
	res, err := Greedy(f.pp, f.sum, 6, f.thetas)
	if err != nil {
		t.Fatal(err)
	}
	checkCover(t, res, 24)
}

func TestValidationErrors(t *testing.T) {
	f := makeFixture(t, 3, 100, 8, 2, 2)
	if _, err := Geometric(f.pp, f.sum, 0); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := Geometric(f.pp, f.sum, 9); err == nil {
		t.Error("more groups than partitions accepted")
	}
	if _, err := Greedy(f.pp, f.sum, 2, f.thetas[:3]); err == nil {
		t.Error("wrong theta length accepted")
	}
}

func TestSingleGroupTakesEverything(t *testing.T) {
	f := makeFixture(t, 4, 150, 10, 2, 2)
	for _, mk := range []func() (*Result, error){
		func() (*Result, error) { return Geometric(f.pp, f.sum, 1) },
		func() (*Result, error) { return Greedy(f.pp, f.sum, 1, f.thetas) },
	} {
		res, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups[0]) != 10 {
			t.Fatalf("single group holds %d partitions", len(res.Groups[0]))
		}
	}
}

func TestGroupsEqualPartitions(t *testing.T) {
	// N == |P| ⇒ each group is exactly one partition.
	f := makeFixture(t, 5, 200, 8, 2, 2)
	res, err := Geometric(f.pp, f.sum, 8)
	if err != nil {
		t.Fatal(err)
	}
	for g, parts := range res.Groups {
		if len(parts) != 1 {
			t.Fatalf("group %d has %d partitions", g, len(parts))
		}
	}
}

// Algorithm 4's purpose: object counts per group should be close to even.
func TestGeometricBalancesLoad(t *testing.T) {
	f := makeFixture(t, 6, 3000, 40, 3, 5)
	res, err := Geometric(f.pp, f.sum, 8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.GroupSizes(f.sum)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 3000 {
		t.Fatalf("group sizes sum to %d, want 3000", total)
	}
	avg := float64(total) / float64(len(sizes))
	for g, s := range sizes {
		if math.Abs(float64(s)-avg) > 0.5*avg {
			t.Errorf("group %d size %d deviates >50%% from average %.0f", g, s, avg)
		}
	}
}

// Geometric seeds must be mutually far: the two seed pivots of a 2-group
// split should be farther apart than the average pivot gap.
func TestGeometricSeedsAreFar(t *testing.T) {
	f := makeFixture(t, 7, 500, 16, 2, 3)
	res, err := Geometric(f.pp, f.sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	seed0, seed1 := res.Groups[0][0], res.Groups[1][0]
	// Heuristic but robust: seeds are in the top half of pairwise gaps.
	gap := f.pp.PivotDist(seed0, seed1)
	var gaps []float64
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			gaps = append(gaps, f.pp.PivotDist(i, j))
		}
	}
	sort.Float64s(gaps)
	if gap < gaps[len(gaps)/2] {
		t.Errorf("seed gap %.2f below median %.2f", gap, gaps[len(gaps)/2])
	}
}

func TestGroupLBsAreGroupMinima(t *testing.T) {
	f := makeFixture(t, 8, 300, 12, 3, 3)
	res, err := Geometric(f.pp, f.sum, 4)
	if err != nil {
		t.Fatal(err)
	}
	glbs := GroupLBs(f.pp, f.sum, f.thetas, res)
	for l := 0; l < 12; l++ {
		for g, parts := range res.Groups {
			want := math.Inf(1)
			for _, i := range parts {
				if f.sum.R[i].Count == 0 {
					continue
				}
				v := voronoi.LBReplica(f.pp.PivotDist(i, l), f.sum.R[i].U, f.thetas[i])
				if v < want {
					want = v
				}
			}
			if got := glbs[l][g]; got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("GroupLBs[%d][%d] = %v, want %v", l, g, got, want)
			}
		}
	}
}

// Theorem-6 routing with GroupLBs must never lose a true neighbor: for
// every r, its exact kNN all land in r's group's replica set.
func TestGroupRoutingPreservesTrueNeighbors(t *testing.T) {
	f := makeFixture(t, 9, 400, 16, 2, 4)
	for _, strat := range []string{"geo", "greedy"} {
		var res *Result
		var err error
		if strat == "geo" {
			res, err = Geometric(f.pp, f.sum, 4)
		} else {
			res, err = Greedy(f.pp, f.sum, 4, f.thetas)
		}
		if err != nil {
			t.Fatal(err)
		}
		glbs := GroupLBs(f.pp, f.sum, f.thetas, res)
		// Replica sets per group.
		inGroup := make([]map[int64]bool, res.NumGroups())
		for g := range inGroup {
			inGroup[g] = make(map[int64]bool)
		}
		for l, part := range f.sParts {
			for _, s := range part {
				for g := 0; g < res.NumGroups(); g++ {
					if s.PivotDist >= glbs[l][g] {
						inGroup[g][s.ID] = true
					}
				}
			}
		}
		for _, r := range f.rObjs {
			rPart, _ := f.pp.Assign(r.Point, nil)
			g := res.GroupOf[rPart]
			type cand struct {
				id int64
				d  float64
			}
			cands := make([]cand, len(f.sObjs))
			for x, s := range f.sObjs {
				cands[x] = cand{s.ID, vector.Dist(r.Point, s.Point)}
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
			for x := 0; x < 4; x++ {
				if !inGroup[g][cands[x].id] {
					t.Fatalf("%s: true neighbor %d of r %d missing from group %d replicas",
						strat, cands[x].id, r.ID, g)
				}
			}
		}
	}
}

// §5.2.2's goal: greedy grouping should not replicate more than geometric
// under the cost model it optimizes (the Eq. 12 approximation).
func TestGreedyNoWorseOnApproxCost(t *testing.T) {
	f := makeFixture(t, 10, 1500, 30, 3, 5)
	geo, err := Geometric(f.pp, f.sum, 6)
	if err != nil {
		t.Fatal(err)
	}
	gre, err := Greedy(f.pp, f.sum, 6, f.thetas)
	if err != nil {
		t.Fatal(err)
	}
	geoCost := ApproxReplication(GroupLBs(f.pp, f.sum, f.thetas, geo), f.sum)
	greCost := ApproxReplication(GroupLBs(f.pp, f.sum, f.thetas, gre), f.sum)
	// Greedy is greedy, not optimal; allow a modest slack before failing.
	if float64(greCost) > 1.15*float64(geoCost) {
		t.Errorf("greedy approx replication %d far exceeds geometric %d", greCost, geoCost)
	}
}

func TestExactReplicationMatchesBruteForce(t *testing.T) {
	f := makeFixture(t, 11, 300, 10, 2, 3)
	res, err := Geometric(f.pp, f.sum, 3)
	if err != nil {
		t.Fatal(err)
	}
	glbs := GroupLBs(f.pp, f.sum, f.thetas, res)
	got := ExactReplication(glbs, f.sDists())
	var want int64
	for l, part := range f.sParts {
		for _, s := range part {
			for g := 0; g < res.NumGroups(); g++ {
				if s.PivotDist >= glbs[l][g] {
					want++
				}
			}
		}
	}
	if got != want {
		t.Fatalf("ExactReplication = %d, want %d", got, want)
	}
}

func TestApproxDominatesExact(t *testing.T) {
	// Equation 12 over-approximates Equation 11: whole partitions count.
	f := makeFixture(t, 12, 500, 12, 3, 3)
	res, err := Geometric(f.pp, f.sum, 4)
	if err != nil {
		t.Fatal(err)
	}
	glbs := GroupLBs(f.pp, f.sum, f.thetas, res)
	exact := ExactReplication(glbs, f.sDists())
	approx := ApproxReplication(glbs, f.sum)
	if approx < exact {
		t.Fatalf("approx replication %d < exact %d", approx, exact)
	}
}

// More pivots ⇒ tighter bounds ⇒ fewer replicas (the §5 motivation and
// the declining curve of Figure 7(b)).
func TestReplicationShrinksWithMorePivots(t *testing.T) {
	costAt := func(nPivots int) float64 {
		f := makeFixture(t, 13, 2000, nPivots, 3, 5)
		res, err := Geometric(f.pp, f.sum, 4)
		if err != nil {
			t.Fatal(err)
		}
		glbs := GroupLBs(f.pp, f.sum, f.thetas, res)
		return float64(ExactReplication(glbs, f.sDists())) / 2000
	}
	few, many := costAt(8), costAt(64)
	if many >= few {
		t.Errorf("avg replication with 64 pivots (%.2f) not below 8 pivots (%.2f)", many, few)
	}
}

// Property: both strategies produce an exact disjoint cover for arbitrary
// shapes.
func TestCoverPropertyQuick(t *testing.T) {
	f := func(seed int64, pivotRaw, groupRaw uint8) bool {
		nPivots := int(pivotRaw)%12 + 2
		n := int(groupRaw)%nPivots + 1
		fx := makeFixture(nil, seed, 120, nPivots, 2, 2)
		for _, mk := range []func() (*Result, error){
			func() (*Result, error) { return Geometric(fx.pp, fx.sum, n) },
			func() (*Result, error) { return Greedy(fx.pp, fx.sum, n, fx.thetas) },
		} {
			res, err := mk()
			if err != nil {
				return false
			}
			seen := make([]int, nPivots)
			for g, parts := range res.Groups {
				for _, i := range parts {
					seen[i]++
					if res.GroupOf[i] != g {
						return false
					}
				}
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// makeDifferentialFixture builds a grouping input shaped to hit Greedy's
// edge cases: pivots on an integer lattice (duplicate pivots and tied
// pivot distances), R drawn from the low corner and S from the high
// corner of the space, so some partitions hold no R objects and others
// no S objects.
func makeDifferentialFixture(seed int64, m int) *fixture {
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, idBase int64, lo float64) []codec.Object {
		out := make([]codec.Object, n)
		for i := range out {
			out[i] = codec.Object{ID: idBase + int64(i), Point: vector.Point{lo + rng.Float64()*60, lo + rng.Float64()*60}}
		}
		return out
	}
	rObjs := mk(4*m, 0, 0)
	sObjs := mk(4*m, int64(4*m), 40)
	side := int(math.Sqrt(float64(m))) + 2
	pivots := make([]vector.Point, m)
	for i := range pivots {
		pivots[i] = vector.Point{float64(rng.Intn(side)) * 100 / float64(side), float64(rng.Intn(side)) * 100 / float64(side)}
	}
	pp := voronoi.NewPartitioner(pivots, vector.L2)
	b := voronoi.NewSummaryBuilder(m, 3)
	for _, objs := range []struct {
		o   []codec.Object
		tag codec.Source
	}{{rObjs, codec.FromR}, {sObjs, codec.FromS}} {
		for _, g := range pp.Partition(objs.o, objs.tag, nil) {
			for _, o := range g {
				b.Add(o)
			}
		}
	}
	sum := b.Finalize()
	return &fixture{pp: pp, sum: sum, thetas: Thetas(sum, pp), rObjs: rObjs, sObjs: sObjs}
}

// TestGreedyMatchesReference: the incremental Greedy must produce exactly
// the groups of the direct §5.2.2 transcription, over group counts from
// one to sixteen and partition counts up to the planner's largest grid
// point (the uniform fixture stops at 150 to bound the reference's cubic
// run time).
func TestGreedyMatchesReference(t *testing.T) {
	check := func(name string, f *fixture, n int) {
		t.Helper()
		want, err := greedyReference(f.pp, f.sum, n, f.thetas)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Greedy(f.pp, f.sum, n, f.thetas)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s n=%d m=%d: Greedy groups %v, reference %v", name, n, f.pp.NumPartitions(), got.Groups, want.Groups)
		}
	}
	for _, n := range []int{1, 2, 8, 16} {
		for _, m := range []int{n, n + 1, 37, 150, 900} {
			if m < n || (testing.Short() && m > 150) {
				continue
			}
			f := makeDifferentialFixture(int64(m*31+n), m)
			if m >= 37 {
				requireEdgeCases(t, f)
			}
			check("lattice", f, n)
			if m <= 150 {
				check("uniform", makeFixture(t, int64(m*17+n), 6*m, m, 3, 5), n)
			}
		}
	}
}

// requireEdgeCases fails unless the fixture holds a partition without R
// objects, one without S objects, and a tied pair of pivot distances.
func requireEdgeCases(t *testing.T, f *fixture) {
	t.Helper()
	var noR, noS, tie bool
	m := f.pp.NumPartitions()
	for i := 0; i < m; i++ {
		noR = noR || f.sum.R[i].Count == 0
		noS = noS || f.sum.S[i].Count == 0
		seen := make(map[float64]bool, m)
		for j := 0; j < m && !tie; j++ {
			d := f.pp.PivotDist(i, j)
			tie = seen[d]
			seen[d] = true
		}
	}
	if !noR || !noS || !tie {
		t.Fatalf("m=%d fixture misses an edge case: empty-R %v, empty-S %v, tied distances %v", m, noR, noS, tie)
	}
}

func BenchmarkGeometric(b *testing.B) {
	f := makeFixture(b, 1, 5000, 100, 6, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Geometric(f.pp, f.sum, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedy runs at the partition count the planner's largest grid
// point reaches on a 50k-object input (p ≈ 900).
func BenchmarkGreedy(b *testing.B) {
	f := makeFixture(b, 1, 20000, 900, 2, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(f.pp, f.sum, 8, f.thetas); err != nil {
			b.Fatal(err)
		}
	}
}

// greedyReference is the direct transcription of §5.2.2 that Greedy
// replaced: every growth step re-prices every remaining candidate against
// every S-partition, O(m³) in the partition count. Greedy must reproduce
// its groups exactly.
func greedyReference(pp *voronoi.Partitioner, sum *voronoi.Summary, n int, thetas []float64) (*Result, error) {
	if err := validate(pp, n); err != nil {
		return nil, err
	}
	if len(thetas) != pp.NumPartitions() {
		return nil, fmt.Errorf("grouping: %d thetas for %d partitions", len(thetas), pp.NumPartitions())
	}
	m := pp.NumPartitions()
	res := &Result{Groups: make([][]int, n), GroupOf: make([]int, m)}
	for i := range res.GroupOf {
		res.GroupOf[i] = -1
	}
	remaining := make(map[int]bool, m)
	for i := 0; i < m; i++ {
		remaining[i] = true
	}

	// lb(P_l^S, P_i^R) per Corollary 2; +Inf when partition i holds no R
	// objects (U = −Inf would otherwise poison the arithmetic).
	lb := func(l, i int) float64 {
		if sum.R[i].Count == 0 {
			return math.Inf(1)
		}
		return voronoi.LBReplica(pp.PivotDist(i, l), sum.R[i].U, thetas[i])
	}

	// Per-group state: current LB(P_l^S, G) per S-partition l, current
	// approximate replica count, and current object count for balancing.
	groupLB := make([][]float64, n)
	sizes := make([]int, n)
	for g := range groupLB {
		groupLB[g] = make([]float64, m)
		for l := range groupLB[g] {
			groupLB[g][l] = math.Inf(1)
		}
	}
	replicated := make([][]bool, n)
	for g := range replicated {
		replicated[g] = make([]bool, m)
	}

	assign := func(g, part int) {
		res.Groups[g] = append(res.Groups[g], part)
		res.GroupOf[part] = g
		delete(remaining, part)
		sizes[g] += sum.R[part].Count
		for l := 0; l < m; l++ {
			if v := lb(l, part); v < groupLB[g][l] {
				groupLB[g][l] = v
			}
			if !replicated[g][l] && sum.S[l].Count > 0 && groupLB[g][l] <= sum.S[l].U {
				replicated[g][l] = true
			}
		}
	}

	// Seeding identical to Algorithm 4 (the paper reuses the framework).
	first, bestSum := -1, math.Inf(-1)
	for i := 0; i < m; i++ {
		var s float64
		for j := 0; j < m; j++ {
			s += pp.PivotDist(i, j)
		}
		if s > bestSum {
			first, bestSum = i, s
		}
	}
	assign(0, first)
	seeds := []int{first}
	for g := 1; g < n; g++ {
		best, bestSum := -1, math.Inf(-1)
		for i := range remaining {
			var s float64
			for _, sd := range seeds {
				s += pp.PivotDist(i, sd)
			}
			if s > bestSum || (s == bestSum && (best == -1 || i < best)) {
				best, bestSum = i, s
			}
		}
		assign(g, best)
		seeds = append(seeds, best)
	}

	// Growth: smallest group first; candidate minimizing ΔRP(S, G_g).
	for len(remaining) > 0 {
		g := 0
		for x := 1; x < n; x++ {
			if sizes[x] < sizes[g] {
				g = x
			}
		}
		best, bestDelta := -1, math.Inf(1)
		for i := range remaining {
			var delta float64
			for l := 0; l < m; l++ {
				if replicated[g][l] || sum.S[l].Count == 0 {
					continue
				}
				if lb(l, i) <= sum.S[l].U {
					delta += float64(sum.S[l].Count)
				}
			}
			if delta < bestDelta || (delta == bestDelta && (best == -1 || i < best)) {
				best, bestDelta = i, delta
			}
		}
		assign(g, best)
	}
	sortGroups(res)
	return res, nil
}
