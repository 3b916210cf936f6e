package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Compare mode reads two result files (JSON lines written by --out) and
// judges every (metric, workload) row by the choosing-metrics rule for a
// small sandbox: a gain needs the change to win at least nine tenths of
// the pairs, ties counting for neither, and the medians to differ by
// more than the base side's own quartile spread; a metric with a bound
// regresses when the change's median is worse than the base's by more
// than the bound.

// sideStats summarizes one side's values of a row.
type sideStats struct {
	med, q1, q3 float64
	n           int
}

func summarize(xs []float64) sideStats {
	return sideStats{med: median(xs), q1: quantile(xs, 0.25), q3: quantile(xs, 0.75), n: len(xs)}
}

// verdict judges change against base for one row. lower says whether a
// lower value is better; bound is the allowed worsening as a share of
// the base median (0: no bound).
func verdict(base, change []float64, lower bool, bound float64) (won float64, v string) {
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 {
		won = float64(wins) / float64(pairs)
	}
	b, c := summarize(base), summarize(change)
	spread := b.q3 - b.q1
	diff := c.med - b.med
	if !lower {
		diff = -diff // positive diff = change worse
	}
	switch {
	case pairs >= 10 && won >= 0.9 && -diff > spread:
		return won, "gain"
	case bound > 0 && diff > bound*b.med:
		return won, "REGRESSION"
	case bound > 0 && spread > bound*b.med && !allBetter(change, base, better):
		return won, "unresolved"
	case bound > 0:
		return won, "within bound"
	}
	return won, "no bound"
}

// allBetter reports whether every change value beats every base value.
func allBetter(change, base []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return len(change) > 0 && len(base) > 0
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// rowValues groups one file's untraced results by (workload, metric),
// pairing runs by seed order.
func rowValues(rs []result) map[[2]string][]float64 {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	out := map[[2]string][]float64{}
	for _, r := range rs {
		if r.Trace {
			continue
		}
		for name, v := range r.Metrics {
			key := [2]string{name, r.Workload}
			out[key] = append(out[key], v.Value)
		}
	}
	return out
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare base.jsonl change.jsonl")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// Only end-to-end metrics carry a bound; per-layer ones give the
	// direction.
	specs := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		specs[m.Name] = m
	}
	var sides [2]map[[2]string][]float64
	for i, p := range args {
		rs, err := readResults(p)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		sides[i] = rowValues(rs)
	}
	var keys [][2]string
	for key := range sides[0] {
		if _, ok := sides[1][key]; ok {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][1] != keys[j][1] {
			return keys[i][1] < keys[j][1]
		}
		return keys[i][0] < keys[j][0]
	})
	regressions := 0
	fmt.Fprintf(stdout, "%-18s %-34s %-32s %-32s %5s %s\n", "workload", "metric", "base med [q1,q3] n", "change med [q1,q3] n", "won", "verdict")
	for _, key := range keys {
		m := specs[key[0]]
		won, v := verdict(sides[0][key], sides[1][key], m.Better != "higher", m.Bound)
		if v == "REGRESSION" {
			regressions++
		}
		b, c := summarize(sides[0][key]), summarize(sides[1][key])
		fmt.Fprintf(stdout, "%-18s %-34s %-32s %-32s %5.2f %s\n", key[1], key[0],
			fmt.Sprintf("%.4g [%.4g,%.4g] %d", b.med, b.q1, b.q3, b.n),
			fmt.Sprintf("%.4g [%.4g,%.4g] %d", c.med, c.q1, c.q3, c.n), won, v)
	}
	if regressions > 0 {
		return 1
	}
	return 0
}
