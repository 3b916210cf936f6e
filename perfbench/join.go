package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"knnjoin"
	"knnjoin/internal/dataset"
	"knnjoin/internal/obs"
	"knnjoin/internal/stats"
)

const k = 10

// joinWorkload is one kNN-join workload: how to generate its inputs and
// the options it passes to knnjoin.Join. Every option not named keeps
// the library default, so a change to a default shows.
type joinWorkload struct {
	name string
	// gen returns R and S; a nil S means a self-join.
	gen  func(n int, seed int64) (r, s []point)
	opts knnjoin.Options
	// reference, when set, gates the rows against an in-process PGBJ
	// join of the same inputs. The two d=2 workloads share inputs and
	// are both exact, so both matching the reference makes them
	// byte-identical to each other.
	reference bool
}

func gaussSelf(n int, seed int64) (r, s []point) { return gaussianPoints(n, 8, 8, seed), nil }

func unifPair(n int, seed int64) (r, s []point) {
	return uniformPoints(n, 2, 2*seed+1), uniformPoints(n, 2, 2*seed+2)
}

var joinWorkloads = []joinWorkload{
	{name: "join-gauss8-self", gen: gaussSelf,
		opts: knnjoin.Options{K: k, Algorithm: knnjoin.PGBJ, Nodes: 8}},
	{name: "join-unif2-auto", gen: unifPair, reference: true,
		opts: knnjoin.Options{K: k, Algorithm: knnjoin.Auto, Nodes: 8}},
	{name: "join-unif2-w2", gen: unifPair, reference: true,
		opts: knnjoin.Options{K: k, Algorithm: knnjoin.PGBJ, Nodes: 8, Workers: 2}},
}

// joinRun is one untraced Join call's measurements.
type joinRun struct {
	wall    time.Duration
	st      *knnjoin.Stats
	digest  string
	allocMB float64
	gcs     float64
}

func runJoin(w joinWorkload, c runConfig, res *result) error {
	rPts, sPts := w.gen(c.n, c.seed)
	self := sPts == nil
	in, err := writeInput(c.dir, "r", rPts)
	if err != nil {
		return err
	}
	res.Inputs[in.name] = in.sha
	paths := []string{in.path}
	if !self {
		in, err := writeInput(c.dir, "s", sPts)
		if err != nil {
			return err
		}
		res.Inputs[in.name] = in.sha
		paths = append(paths, in.path)
	}
	rPts, sPts = nil, nil

	// Set-up: loading the CSV inputs, repeated so the median is steady.
	var setup []time.Duration
	var objs [][]knnjoin.Object
	for i := 0; i < joinSetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		objs, err = readInputs(paths, nil, 0)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0))
	}
	r, s := objs[0], objs[0]
	if !self {
		s = objs[1]
	}
	res.set("setup_s", median(durSeconds(setup)), "s", len(setup))

	// Measured phase: back-to-back Join calls until the next one would
	// overrun the run length.
	inProc := w.opts.Workers == 0
	var runs []joinRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start)+runs[len(runs)-1].wall <= c.seconds {
		// Every timed join starts from a collected heap, so where the
		// previous join left the GC cycle does not move this one's time.
		runtime.GC()
		var m0, m1 runtime.MemStats
		if inProc {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		rows, st, err := knnjoin.Join(r, s, w.opts)
		wall := time.Since(t0)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("join %d: %v", len(runs), err)
			return nil
		}
		run := joinRun{wall: wall, st: st}
		if inProc {
			runtime.ReadMemStats(&m1)
			run.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			run.gcs = float64(m1.NumGC - m0.NumGC)
		}
		// The gate is untimed: it runs after the wall clock stopped.
		var bad bool
		run.digest, bad = checkRows(rows, r, s, len(runs) == 0, c.seed, res)
		if bad || (len(runs) > 0 && run.digest != runs[0].digest) {
			if !bad {
				res.fail("join %d rows differ from join 0", len(runs))
			}
			res.Failed++
		}
		runs = append(runs, run)
	}
	if w.reference {
		ref := knnjoin.Options{K: k, Algorithm: knnjoin.PGBJ, Nodes: 8}
		rows, _, err := knnjoin.Join(r, s, ref)
		if err != nil {
			return fmt.Errorf("reference join: %w", err)
		}
		if d := rowsDigest(rows); d != runs[0].digest {
			res.fail("rows differ from the in-process PGBJ reference (%.12s vs %.12s)", runs[0].digest, d)
			res.Failed++
		}
	}
	res.set("mem_peak_mb", c.mem.peakMB(), "MiB", 0)
	recordJoin(w, runs, res)
	if c.trace {
		return traceJoin(w, c, paths, r, s, runs, res)
	}
	return nil
}

// readInputs loads the CSV inputs through dataset.ReadCSV, each inside
// a dataset.read span when log is non-nil.
func readInputs(paths []string, log *spanLog, parent int) ([][]knnjoin.Object, error) {
	var out [][]knnjoin.Object
	for _, p := range paths {
		id := log.start("dataset.read", parent)
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		objs, err := dataset.ReadCSV(f)
		f.Close()
		log.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, objs)
	}
	return out, nil
}

// recordJoin turns the untraced runs into metrics: timings as medians
// over the runs, counts from the first run's Stats (they repeat).
func recordJoin(w joinWorkload, runs []joinRun, res *result) {
	n := len(runs)
	walls := make([]float64, n)
	unattributed := make([]float64, n)
	phases := map[string][]float64{}
	var j2Map, j2Reduce, nsPerComp, alloc, gcs []float64
	for i, run := range runs {
		walls[i] = run.wall.Seconds()
		unattributed[i] = (run.wall - run.st.TotalWall()).Seconds()
		for _, p := range run.st.Phases {
			phases[p.Name] = append(phases[p.Name], p.Wall.Seconds())
		}
		if j := joinJob(run.st); j != nil {
			j2Map = append(j2Map, j.MapWall.Seconds())
			j2Reduce = append(j2Reduce, j.ReduceWall.Seconds())
			if j.DistComps > 0 {
				nsPerComp = append(nsPerComp, float64(j.ReduceWall.Nanoseconds())/float64(j.DistComps))
			}
		}
		alloc = append(alloc, run.allocMB)
		gcs = append(gcs, run.gcs)
	}
	ws := make([]string, n)
	for i, x := range walls {
		ws[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	res.Info["join_walls_s"] = strings.Join(ws, " ")
	res.set("join_s", median(walls), "s", n)
	res.set("op_p50_ms", median(walls)*1000, "ms", n)
	res.set("knnjoin.unattributed_s", median(unattributed), "s", n)
	for name, metric := range map[string]string{
		"Pivot Selection":    "pivot.select_s",
		"Data Partitioning":  "voronoi.partition_s",
		"Index Merging":      "voronoi.summary_s",
		"Partition Grouping": "grouping.group_s",
	} {
		if xs := phases[name]; len(xs) > 0 {
			res.set(metric, median(xs), "s", len(xs))
		}
	}
	if len(j2Map) > 0 {
		res.set("mapreduce.job2_map_s", median(j2Map), "s", n)
		res.set("mapreduce.job2_reduce_s", median(j2Reduce), "s", n)
	}
	if len(nsPerComp) > 0 {
		res.set("vector.reduce_ns_per_comp", median(nsPerComp), "ns", n)
	}
	if w.opts.Workers == 0 {
		res.set("go.alloc_mb", median(alloc), "MiB", n)
		res.set("go.gc_cycles", median(gcs), "count", n)
	}

	st := runs[0].st
	var jobs []string
	for _, j := range st.Jobs {
		jobs = append(jobs, j.Name)
	}
	res.Info["jobs"] = strings.Join(jobs, ",")
	res.Info["stats"] = st.String()
	if st.Plan != nil {
		res.Info["plan"] = st.Plan.String()
	}
	res.set("shuffle_mb", float64(st.ShuffleBytes)/(1<<20), "MiB", 0)
	res.set("selectivity_permille", st.Selectivity()*1000, "permille", 0)
	res.set("pgbj.replication", st.AvgReplication(), "ratio", 0)
	res.set("pgbj.join_skew", st.JoinSkew, "ratio", 0)
	res.set("mapreduce.shuffle_records", float64(st.ShuffleRecords), "count", 0)
	var spilled, tasks, reexec int64
	for _, j := range st.Jobs {
		spilled += j.SpilledBytes
		tasks += int64(j.WorkerTasks)
		reexec += j.ReexecutedAttempts
	}
	if j := joinJob(st); j != nil {
		res.set("pgbj.reduce_dist_comps", float64(j.DistComps), "count", 0)
	}
	if len(st.Jobs) > 1 && strings.Contains(st.Jobs[0].Name, "partition") {
		res.set("voronoi.assign_dist_comps", float64(st.Jobs[0].DistComps), "count", 0)
	}
	if w.opts.Workers > 0 {
		res.set("mapreduce.spilled_mb", float64(spilled)/(1<<20), "MiB", 0)
		res.set("mapreduce.worker_tasks", float64(tasks), "count", 0)
		res.set("mapreduce.reexecuted_attempts", float64(reexec), "count", 0)
		// A job without a registered kind silently runs in-process;
		// zero worker tasks is the detector.
		if tasks == 0 {
			res.fail("Workers=%d but no task ran on a worker process", w.opts.Workers)
		}
	}
	if st.Plan != nil {
		res.set("planner.candidates", float64(st.Plan.Candidates), "count", 0)
		if st.Pairs > 0 {
			res.set("planner.pred_over_actual_dist", float64(st.Plan.PredictedDistComps)/float64(st.Pairs), "ratio", 0)
		}
	}
}

// joinJob is the job whose reducers run the distance kernel ("job 2"
// of PGBJ): the last job named as a join.
func joinJob(st *knnjoin.Stats) *stats.JobStat {
	for i := len(st.Jobs) - 1; i >= 0; i-- {
		if strings.Contains(st.Jobs[i].Name, "join") {
			return &st.Jobs[i]
		}
	}
	return nil
}

// traceJoin repeats the workload once with tracing on: the benchmark's
// spans around each layer call, plus the engine's own worker spans via
// Options.TraceDir when the join runs on worker processes. For Auto it
// times AutoPlan separately and then joins with the pinned winning plan,
// whose rows must match Join(Auto)'s.
func traceJoin(w joinWorkload, c runConfig, paths []string, r, s []knnjoin.Object, runs []joinRun, res *result) error {
	log := &spanLog{}
	root := log.start("bench.join", 0)
	if _, err := readInputs(paths, log, root); err != nil {
		return err
	}
	opts := w.opts
	t0 := time.Now()
	if opts.Algorithm == knnjoin.Auto {
		id := log.start("planner.plan", root)
		plans, err := knnjoin.AutoPlan(r, s, opts)
		log.end(id)
		if err != nil {
			return fmt.Errorf("AutoPlan: %w", err)
		}
		if opts, err = pinPlan(opts, plans); err != nil {
			return err
		}
	}
	if opts.Workers > 0 {
		opts.TraceDir = filepath.Join(c.dir, "trace")
	}
	id := log.start("knnjoin.join", root)
	rows, _, err := knnjoin.Join(r, s, opts)
	log.end(id)
	traced := time.Since(t0)
	log.end(root)
	res.Attempted++
	if err != nil {
		res.Failed++
		res.fail("traced join: %v", err)
		return nil
	}
	if d := rowsDigest(rows); d != runs[0].digest {
		res.Failed++
		res.fail("traced join rows differ from the untraced join's")
	}
	for name, ds := range log.selfTimes() {
		if name == "bench.join" || name == "knnjoin.join" {
			continue
		}
		res.set(name+"_s", sum(durSeconds(ds)), "s", len(ds))
	}
	if opts.TraceDir != "" {
		spans, err := obs.ReadDir(opts.TraceDir)
		if err != nil {
			return err
		}
		var busy float64
		for _, sp := range spans {
			if sp.Name == "task" {
				busy += float64(sp.EndNs-sp.StartNs) / 1e9
			}
		}
		res.set("mapreduce.task_busy_s", busy, "s", 0)
	}
	untraced := median(durSeconds(wallsOf(runs)))
	res.set("trace.overhead_pct", 100*(traced.Seconds()-untraced)/untraced, "%", 1)
	return log.write(filepath.Join(c.dir, "spans.jsonl"))
}

// pinPlan applies the planner's first exact plan to opts, as Join does
// for Algorithm Auto.
func pinPlan(opts knnjoin.Options, plans []knnjoin.Plan) (knnjoin.Options, error) {
	for _, p := range plans {
		if p.Approximate {
			continue
		}
		algo, err := knnjoin.ParseAlgorithm(p.Algo)
		if err != nil {
			return opts, err
		}
		opts.Algorithm = algo
		if p.NumPivots > 0 {
			opts.NumPivots = p.NumPivots
			opts.PivotStrategy = p.PivotStrategy
			opts.GroupStrategy = p.GroupStrategy
		}
		return opts, nil
	}
	return opts, fmt.Errorf("AutoPlan returned no exact plan")
}

func wallsOf(runs []joinRun) []time.Duration {
	out := make([]time.Duration, len(runs))
	for i, r := range runs {
		out[i] = r.wall
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// rowsDigest hashes the rows in the "rid,sid,dist" form the knnjoin CLI
// prints, so equal digests mean byte-identical output.
func rowsDigest(rows []knnjoin.Result) string {
	h := sha256.New()
	var buf []byte
	for _, row := range rows {
		for _, nb := range row.Neighbors {
			buf = strconv.AppendInt(buf[:0], row.RID, 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, nb.ID, 10)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, nb.Dist, 'g', -1, 64)
			buf = append(buf, '\n')
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gateSample is how many R rows the gate checks against brute force.
const gateSample = 64

// checkRows is the correctness gate: one row per R object in ID order,
// each with min(k,|S|) neighbors in ascending distance, and (when full)
// a seeded sample of rows equal to a brute-force scan of S. It returns
// the rows' digest and whether any check failed.
func checkRows(rows []knnjoin.Result, r, s []knnjoin.Object, full bool, seed int64, res *result) (string, bool) {
	want := min(k, len(s))
	bad := false
	if len(rows) != len(r) {
		res.fail("%d rows for %d R objects", len(rows), len(r))
		return rowsDigest(rows), true
	}
	for i, row := range rows {
		// Rows are ordered by R ID; the inputs are generated in ID order.
		if row.RID != r[i].ID {
			res.fail("row %d has RID %d, want %d", i, row.RID, r[i].ID)
			bad = true
			break
		}
		if len(row.Neighbors) != want {
			res.fail("row %d has %d neighbors, want %d", row.RID, len(row.Neighbors), want)
			bad = true
			break
		}
		if !sort.SliceIsSorted(row.Neighbors, func(a, b int) bool { return row.Neighbors[a].Dist < row.Neighbors[b].Dist }) {
			res.fail("row %d neighbors not ascending", row.RID)
			bad = true
			break
		}
	}
	if full && !bad {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < gateSample && !bad; i++ {
			idx := rng.Intn(len(r))
			if err := bruteCheck(rows[idx], r[idx], s); err != nil {
				res.fail("row %d: %v", r[idx].ID, err)
				bad = true
			}
		}
	}
	return rowsDigest(rows), bad
}

// bruteCheck compares one row to an exhaustive scan of s: the reported
// distances must be the true distances of the reported IDs, the k-th
// distance must match, and every object strictly closer than it must
// be reported (objects tied at the k-th distance may be either).
func bruteCheck(row knnjoin.Result, q knnjoin.Object, s []knnjoin.Object) error {
	type cand struct {
		id   int64
		dist float64
	}
	all := make([]cand, len(s))
	byID := make(map[int64]float64, len(s))
	for i, o := range s {
		d := l2(q.Point, o.Point)
		all[i] = cand{o.ID, d}
		byID[o.ID] = d
	}
	sort.Slice(all, func(a, b int) bool { return all[a].dist < all[b].dist })
	want := min(k, len(s))
	kth := all[want-1].dist
	tol := 1e-9 * math.Max(1, kth)
	got := map[int64]bool{}
	for _, nb := range row.Neighbors {
		d, ok := byID[nb.ID]
		if !ok {
			return fmt.Errorf("neighbor %d is not in S", nb.ID)
		}
		if math.Abs(d-nb.Dist) > tol {
			return fmt.Errorf("neighbor %d at %v, true distance %v", nb.ID, nb.Dist, d)
		}
		got[nb.ID] = true
	}
	if last := row.Neighbors[len(row.Neighbors)-1].Dist; math.Abs(last-kth) > tol {
		return fmt.Errorf("k-th distance %v, brute force %v", last, kth)
	}
	for _, c := range all[:want] {
		if c.dist < kth-tol && !got[c.id] {
			return fmt.Errorf("missing neighbor %d at %v", c.id, c.dist)
		}
	}
	return nil
}

func l2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
