// Package grouping implements §5 of the paper: clustering the Voronoi
// partitions of R into N reducer groups so that a large pivot count (good
// bounds) can coexist with a small reducer count (practical cluster), and
// the replication RP(S) of Theorem 7 stays low.
//
// Two strategies are provided, matching §5.2: geometric grouping
// (Algorithm 4, pivot-distance driven, load balanced) and greedy grouping
// (cost-model driven via the approximation of Equation 12).
package grouping

import (
	"fmt"
	"math"
	"sort"

	"knnjoin/internal/voronoi"
)

// Result is a disjoint cover of the R-partitions by N groups.
type Result struct {
	Groups  [][]int // Groups[g] lists the partition indices of group g
	GroupOf []int   // GroupOf[i] is the group of partition i
}

// NumGroups returns N.
func (r *Result) NumGroups() int { return len(r.Groups) }

// GroupSizes returns the number of R objects per group — the quantity
// whose balance Table 3 reports.
func (r *Result) GroupSizes(sum *voronoi.Summary) []int {
	sizes := make([]int, len(r.Groups))
	for g, parts := range r.Groups {
		for _, i := range parts {
			sizes[g] += sum.R[i].Count
		}
	}
	return sizes
}

// validate checks the shared preconditions of both strategies.
func validate(pp *voronoi.Partitioner, n int) error {
	if n <= 0 {
		return fmt.Errorf("grouping: need a positive group count, got %d", n)
	}
	if n > pp.NumPartitions() {
		return fmt.Errorf("grouping: %d groups exceed %d partitions", n, pp.NumPartitions())
	}
	return nil
}

// Thetas computes θ_i for every R-partition P_i^R — Algorithm 1 of
// §4.3.2: the upper bound on the kNN distance of any object in P_i^R,
// derived from the k smallest pivot distances the TR/TS summary tables
// record (the bound behind Theorem 4 and Corollary 2). Both grouping
// strategies and the second MapReduce job's replica routing consume this
// vector.
func Thetas(sum *voronoi.Summary, pp *voronoi.Partitioner) []float64 {
	out := make([]float64, pp.NumPartitions())
	for i := range out {
		out[i] = sum.BoundKNN(i, pp)
	}
	return out
}

// Geometric implements geometric grouping — §5.2.1, Algorithm 4, the
// strategy whose group-size balance Table 3 reports. Groups are seeded
// with mutually far pivots (farthest-first), then each remaining
// partition joins the currently smallest group among which its pivot is
// nearest, keeping the per-group object counts nearly equal.
func Geometric(pp *voronoi.Partitioner, sum *voronoi.Summary, n int) (*Result, error) {
	if err := validate(pp, n); err != nil {
		return nil, err
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

	// Line 1: the first seed maximizes total distance to all other pivots.
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
	assign := func(g, part int) {
		res.Groups[g] = append(res.Groups[g], part)
		res.GroupOf[part] = g
		delete(remaining, part)
	}
	assign(0, first)
	seeds := []int{first}

	// Lines 3–5: remaining seeds maximize distance to already-picked seeds.
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

	// Lines 6–9: grow the smallest group by its nearest remaining pivot.
	sizes := make([]int, n)
	for g, parts := range res.Groups {
		for _, i := range parts {
			sizes[g] += sum.R[i].Count
		}
	}
	for len(remaining) > 0 {
		g := 0
		for x := 1; x < n; x++ {
			if sizes[x] < sizes[g] {
				g = x
			}
		}
		best, bestSum := -1, math.Inf(1)
		for i := range remaining {
			var s float64
			for _, j := range res.Groups[g] {
				s += pp.PivotDist(i, j)
			}
			if s < bestSum || (s == bestSum && (best == -1 || i < best)) {
				best, bestSum = i, s
			}
		}
		assign(g, best)
		sizes[g] += sum.R[best].Count
	}
	sortGroups(res)
	return res, nil
}

// Greedy implements §5.2.2: groups are seeded exactly as in Algorithm 4,
// but each growth step picks the partition that minimizes the increase of
// the approximated replica set RP(S, G_i) of Equation 12 — whole
// S-partitions count as replicated as soon as their group lower bound
// LB(P_j^S, G_i) falls to or below U(P_j^S).
//
// LB(P_j^S, G_i) is the minimum of Corollary 2's per-partition bound over
// the group's members, so P_j^S is replicated to G_i exactly when some
// member alone reaches it. Each R-partition's list of S-partitions it
// reaches is computed once, and the increase ΔRP of every (group,
// candidate) pair is kept as an integer count that drops by |P_j^S| when
// P_j^S becomes replicated to the group. Every (group, S-partition) pair
// flips at most once, so growth costs O(N·m²).
func Greedy(pp *voronoi.Partitioner, sum *voronoi.Summary, n int, thetas []float64) (*Result, error) {
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

	// hits[i] lists the non-empty S-partitions l with lb(P_l^S, P_i^R)
	// ≤ U(P_l^S) per Corollary 2, hitBy[l] the converse; a partition
	// holding no R objects reaches nothing (its bound is +Inf).
	hits := make([][]int, m)
	hitBy := make([][]int, m)
	for i := 0; i < m; i++ {
		if sum.R[i].Count == 0 {
			continue
		}
		for l := 0; l < m; l++ {
			if sum.S[l].Count > 0 && voronoi.LBReplica(pp.PivotDist(i, l), sum.R[i].U, thetas[i]) <= sum.S[l].U {
				hits[i] = append(hits[i], l)
				hitBy[l] = append(hitBy[l], i)
			}
		}
	}

	// Per-group state: which S-partitions are replicated, ΔRP(S, G_g) of
	// adding each candidate, and the object count for balancing.
	replicated := make([][]bool, n)
	delta := make([][]int64, n)
	fullDelta := make([]int64, m)
	for i, ls := range hits {
		for _, l := range ls {
			fullDelta[i] += int64(sum.S[l].Count)
		}
	}
	for g := range delta {
		replicated[g] = make([]bool, m)
		delta[g] = append([]int64(nil), fullDelta...)
	}
	sizes := make([]int, n)
	taken := make([]bool, m)

	assign := func(g, part int) {
		res.Groups[g] = append(res.Groups[g], part)
		res.GroupOf[part] = g
		taken[part] = true
		sizes[g] += sum.R[part].Count
		for _, l := range hits[part] {
			if replicated[g][l] {
				continue
			}
			replicated[g][l] = true
			c := int64(sum.S[l].Count)
			for _, i := range hitBy[l] {
				delta[g][i] -= c
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
		for i := 0; i < m; i++ {
			if taken[i] {
				continue
			}
			var s float64
			for _, sd := range seeds {
				s += pp.PivotDist(i, sd)
			}
			if s > bestSum || (s == bestSum && best == -1) {
				best, bestSum = i, s
			}
		}
		assign(g, best)
		seeds = append(seeds, best)
	}

	// Growth: smallest group first; candidate minimizing ΔRP(S, G_g),
	// ties to the lowest partition index.
	for left := m - n; left > 0; left-- {
		g := 0
		for x := 1; x < n; x++ {
			if sizes[x] < sizes[g] {
				g = x
			}
		}
		best := -1
		for i, d := range delta[g] {
			if !taken[i] && (best == -1 || d < delta[g][best]) {
				best = i
			}
		}
		assign(g, best)
	}
	sortGroups(res)
	return res, nil
}

// sortGroups orders each group's member list; group identity and content
// are unchanged. Deterministic member order makes results reproducible.
func sortGroups(res *Result) {
	for _, g := range res.Groups {
		sort.Ints(g)
	}
}

// GroupLBs computes LB(P_j^S, G_g) of Theorem 6 (§5.1) for every
// S-partition and group: the minimum over the group's member partitions
// of Corollary 2's per-partition threshold, so an S object replicates to
// G_g iff its pivot distance reaches the table entry. The second
// MapReduce job's mappers route replicas with exactly this table — it is
// the LB(P_j^S, G_i) side data of Algorithm 3's setup hook.
func GroupLBs(pp *voronoi.Partitioner, sum *voronoi.Summary, thetas []float64, res *Result) [][]float64 {
	m := pp.NumPartitions()
	out := make([][]float64, m) // out[sPartition][group]
	for l := 0; l < m; l++ {
		row := make([]float64, res.NumGroups())
		for g := range row {
			row[g] = math.Inf(1)
		}
		out[l] = row
	}
	for g, parts := range res.Groups {
		for _, i := range parts {
			if sum.R[i].Count == 0 {
				continue
			}
			for l := 0; l < m; l++ {
				v := voronoi.LBReplica(pp.PivotDist(i, l), sum.R[i].U, thetas[i])
				if v < out[l][g] {
					out[l][g] = v
				}
			}
		}
	}
	return out
}

// ExactReplication evaluates RP(S) of Theorem 7 (§5.2) exactly: given
// each S-partition's full ascending pivot-distance list, it counts how
// many (object, group) replicas the routing rule of Theorem 6 produces —
// the "replication of S" quantity Figure 7b plots and greedy grouping
// tries to minimize.
func ExactReplication(groupLBs [][]float64, sDists [][]float64) int64 {
	var total int64
	for l, row := range groupLBs {
		ds := sDists[l]
		for _, lbv := range row {
			// Objects with |s,p_l| ≥ lbv replicate; ds is ascending.
			idx := sort.SearchFloat64s(ds, lbv)
			total += int64(len(ds) - idx)
		}
	}
	return total
}

// ApproxReplication evaluates Equation 12's coarse estimate of RP(S)
// (§5.2.2): an entire S-partition counts as replicated to a group as
// soon as any of its objects would be — i.e. as soon as LB(P_j^S, G_i)
// falls to or below the partition's largest pivot distance U(P_j^S) from
// table TS. Greedy grouping optimizes this quantity because the exact
// Theorem-7 count is too expensive to re-evaluate at every growth step.
func ApproxReplication(groupLBs [][]float64, sum *voronoi.Summary) int64 {
	var total int64
	for l, row := range groupLBs {
		if sum.S[l].Count == 0 {
			continue
		}
		for _, lbv := range row {
			if lbv <= sum.S[l].U {
				total += int64(sum.S[l].Count)
			}
		}
	}
	return total
}
