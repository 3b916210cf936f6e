package knnjoin

import (
	"fmt"
	"os"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/stats"
)

// TestAutoPlanRanksAndExplains exercises the public planning API: the
// ranked list is non-empty, sorted, deterministic per seed, and its
// first exact entry is a parseable configuration.
func TestAutoPlanRanksAndExplains(t *testing.T) {
	objs := dataset.Gaussian(2000, 4, 8, 0, 100, 1)
	opts := Options{K: 10, Seed: 3}
	plans, err := AutoPlan(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 10 {
		t.Fatalf("only %d candidate plans; the grid should produce more", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Score < plans[i-1].Score {
			t.Fatalf("plans not sorted at rank %d", i)
		}
	}
	again, err := AutoPlan(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if plans[i].Config() != again[i].Config() || plans[i].Score != again[i].Score {
			t.Fatalf("rank %d not deterministic: %q vs %q", i, plans[i].Config(), again[i].Config())
		}
	}
	var exact *Plan
	for i := range plans {
		if !plans[i].Approximate {
			exact = &plans[i]
			break
		}
	}
	if exact == nil {
		t.Fatal("no exact plan in the ranking")
	}
	if _, err := ParseAlgorithm(exact.Algo); err != nil {
		t.Fatalf("winning plan's algorithm %q is not executable: %v", exact.Algo, err)
	}
	if _, err := AutoPlan(objs, objs, Options{K: 0}); err == nil {
		t.Error("AutoPlan accepted K=0")
	}
}

// TestAutoPlanGolden pins the full ranked plan list — every score,
// prediction and Why string — against the output of the reference
// planner (the direct O(m³) greedy grouping and per-partition visit-order
// sorts), so the planner's speed-ups must leave each plan byte-identical.
// The cases are a uniform d=2 R×S pair whose grid reaches p=564 and a
// clustered d=8 self-join.
func TestAutoPlanGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		r, s   []Object
		opts   Options
	}{
		{"autoplan_unif2_20k", dataset.Uniform(20000, 2, 100, 1), dataset.Uniform(20000, 2, 100, 2), Options{K: 10, Nodes: 8, Seed: 1}},
		{"autoplan_gauss8_self", dataset.Gaussian(6000, 8, 8, 0, 100, 3), nil, Options{K: 5, Nodes: 4, Seed: 7}},
	} {
		s := c.s
		if s == nil {
			s = c.r
		}
		plans, err := AutoPlan(c.r, s, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/" + c.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", plans); got != string(want) {
			t.Errorf("%s: plans differ from the golden\ngot:  %s\nwant: %s", c.golden, got, want)
		}
	}
}

// TestAutoJoinMatchesDirectRun: a join with Algorithm Auto must return
// exactly what running the chosen configuration by hand returns, and
// its Stats must carry both the plan (with predictions) and nonzero
// measured actuals — predicted versus actual is the planner's
// falsifiability contract.
func TestAutoJoinMatchesDirectRun(t *testing.T) {
	objs := dataset.Uniform(2500, 4, 100, 2)
	auto, st, err := Join(objs, objs, Options{K: 10, Algorithm: Auto, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil {
		t.Fatal("Stats.Plan is nil for an Auto join")
	}
	if st.Plan.Candidates < 10 {
		t.Errorf("plan ranked against %d candidates, want the full grid", st.Plan.Candidates)
	}
	if st.Plan.PredictedDistComps <= 0 {
		t.Error("no predicted distance computations recorded")
	}
	if st.Pairs <= 0 {
		t.Error("no actual distance computations recorded")
	}
	algo, err := ParseAlgorithm(st.Plan.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	if algo != BruteForce {
		if st.Plan.PredictedShuffleBytes <= 0 || st.ShuffleBytes <= 0 {
			t.Errorf("cluster plan must carry predicted (%d) and actual (%d) shuffle bytes",
				st.Plan.PredictedShuffleBytes, st.ShuffleBytes)
		}
		// The prediction must be in the actual's neighborhood, not a
		// placeholder: within 3× either way.
		ratio := float64(st.Plan.PredictedShuffleBytes) / float64(st.ShuffleBytes)
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("predicted shuffle %d vs actual %d (ratio %.2f)",
				st.Plan.PredictedShuffleBytes, st.ShuffleBytes, ratio)
		}
	}
	direct := Options{K: 10, Algorithm: algo, Seed: 5, NumPivots: st.Plan.NumPivots}
	if st.Plan.PivotStrategy != "" {
		if direct.PivotStrategy, err = ParsePivotStrategy(st.Plan.PivotStrategy); err != nil {
			t.Fatal(err)
		}
	}
	if st.Plan.GroupStrategy != "" {
		if direct.GroupStrategy, err = ParseGroupStrategy(st.Plan.GroupStrategy); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := Join(objs, objs, direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) != len(want) {
		t.Fatalf("auto returned %d results, direct %d", len(auto), len(want))
	}
	for i := range want {
		if auto[i].RID != want[i].RID || len(auto[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("result %d differs between auto and direct runs", i)
		}
		for j := range want[i].Neighbors {
			if auto[i].Neighbors[j] != want[i].Neighbors[j] {
				t.Fatalf("result %d neighbor %d differs: %v vs %v",
					i, j, auto[i].Neighbors[j], want[i].Neighbors[j])
			}
		}
	}
}

// TestAutoJoinEmptyInputs: Auto degrades to the centralized join on
// degenerate inputs instead of failing to sample them.
func TestAutoJoinEmptyInputs(t *testing.T) {
	objs := dataset.Uniform(50, 3, 100, 1)
	if _, _, err := Join(nil, objs, Options{K: 3, Algorithm: Auto}); err != nil {
		t.Fatalf("empty R: %v", err)
	}
	res, st, err := Join(objs, nil, Options{K: 3, Algorithm: Auto})
	if err != nil {
		t.Fatalf("empty S: %v", err)
	}
	if len(res) != 0 || st == nil {
		t.Fatalf("empty S returned %d results", len(res))
	}
	if _, _, err := Join(objs, objs, Options{Algorithm: Auto}); err == nil {
		t.Error("Auto with K=0 accepted")
	}
}

// TestStatsJobsActuals is the regression gate for the per-job actuals:
// every distributed algorithm must report at least one job whose
// shuffle-byte and distance-computation actuals sum to the aggregate
// counters, and the whole breakdown (walls aside) must be identical
// across runs with one seed.
func TestStatsJobsActuals(t *testing.T) {
	objs := dataset.Uniform(600, 4, 100, 3)
	run := func(a Algorithm) *Stats {
		t.Helper()
		_, st, err := Join(objs, objs, Options{K: 5, Algorithm: a, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		return st
	}
	stripWall := func(jobs []stats.JobStat) []stats.JobStat {
		out := append([]stats.JobStat(nil), jobs...)
		for i := range out {
			out[i].Wall = 0
			out[i].MapWall = 0
			out[i].ReduceWall = 0
		}
		return out
	}
	for _, a := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, Theta, ZKNN, LSH} {
		t.Run(a.String(), func(t *testing.T) {
			st := run(a)
			if len(st.Jobs) == 0 {
				t.Fatal("no per-job actuals recorded")
			}
			var shuffle, comps int64
			for _, j := range st.Jobs {
				if j.Name == "" {
					t.Error("job with empty name")
				}
				shuffle += j.ShuffleBytes
				comps += j.DistComps
			}
			if shuffle != st.ShuffleBytes {
				t.Errorf("job shuffle bytes sum %d != aggregate %d", shuffle, st.ShuffleBytes)
			}
			if shuffle <= 0 {
				t.Error("zero shuffle bytes across all jobs")
			}
			if comps <= 0 {
				t.Error("zero distance computations across all jobs")
			}
			a2 := stripWall(run(a).Jobs)
			a1 := stripWall(st.Jobs)
			if len(a1) != len(a2) {
				t.Fatalf("job count unstable across runs: %d vs %d", len(a1), len(a2))
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Errorf("job %d actuals unstable per seed: %+v vs %+v", i, a1[i], a2[i])
				}
			}
		})
	}
	// The centralized join has no jobs — the breakdown stays empty.
	if st := run(BruteForce); len(st.Jobs) != 0 {
		t.Errorf("bruteforce recorded %d jobs", len(st.Jobs))
	}
}
