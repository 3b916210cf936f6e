package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knnjoin"
	"knnjoin/internal/codec"
	"knnjoin/internal/serve"
	"knnjoin/internal/shard"
	"knnjoin/internal/vindex"
)

// The test binary is what the worker and shard processes re-execute in
// the smoke runs, so it must enter them first, exactly like main.
func TestMain(m *testing.M) {
	knnjoin.RunWorkerIfSpawned()
	shard.RunShardIfSpawned()
	os.Exit(m.Run())
}

func TestInputsAreByteStablePerSeed(t *testing.T) {
	gens := map[string]func(seed int64) []point{
		"gaussian": func(seed int64) []point { return gaussianPoints(500, 8, 8, seed) },
		"uniform":  func(seed int64) []point { return uniformPoints(500, 2, seed) },
	}
	for name, gen := range gens {
		a, b, c := csvBytes(gen(7)), csvBytes(gen(7)), csvBytes(gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different bytes", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same bytes", name)
		}
	}
	for _, w := range serveWorkloads {
		data := w.index(500, 3)
		g1, g2 := newReqGen(w, data, 3), newReqGen(w, data, 3)
		for i := 0; i < 200; i++ {
			if r1, r2 := g1.next(), g2.next(); !bytes.Equal(r1.body, r2.body) || r1.path != r2.path {
				t.Fatalf("%s: request %d differs between generators with one seed", w.name, i)
			}
		}
	}
}

// A smoke-sized run of every workload, traced so both passes run, must
// pass its correctness gate. The worker and shard detectors inside the
// gate fail the run when the spawn hooks are missing.
func TestSmokeRunsPassTheGate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker and shard processes")
	}
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			c := runConfig{seed: 5, seconds: 300 * time.Millisecond, trace: true, n: 1500, dir: t.TempDir()}
			res, err := runWorkload(name, c)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			// Every end-to-end metric is measured, and is never 0.
			for _, m := range sp.EndToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: %+v (measured %v)", m.Name, v, ok)
				}
			}
			if strings.HasPrefix(name, "join") {
				if _, ok := res.Metrics["join_s"]; !ok {
					t.Error("join run reported no join_s")
				}
			}
			if name == "join-unif2-w2" && res.Metrics["mapreduce.worker_tasks"].Value == 0 {
				t.Error("no task ran on a worker process")
			}
			if name == "join-unif2-auto" && res.Metrics["planner.plan_s"].Value <= 0 {
				t.Error("traced auto run did not time AutoPlan")
			}
			if name == "serve-shards2" && res.Metrics["shard.scan_rpcs_per_query"].Value == 0 {
				t.Error("no query reached a shard process")
			}
		})
	}
}

// The gate must catch a wrong answer, not only pass right ones.
func TestGateRejectsWrongRows(t *testing.T) {
	objs := func(pts []point) []knnjoin.Object {
		out := make([]knnjoin.Object, len(pts))
		for i, p := range pts {
			out[i] = knnjoin.Object{ID: p.id, Point: p.x}
		}
		return out
	}
	r, s := objs(uniformPoints(300, 2, 1)), objs(uniformPoints(400, 2, 2))
	rows, _, err := knnjoin.Join(r, s, knnjoin.Options{K: k, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := checkRows(rows, r, s, true, 1, newResult("x", 1, 1, false)); bad {
		t.Fatal("correct rows failed the gate")
	}
	for i := range rows {
		rows[i].Neighbors[0].ID = rows[i].Neighbors[len(rows[i].Neighbors)-1].ID
	}
	res := newResult("x", 1, 1, false)
	if _, bad := checkRows(rows, r, s, true, 1, res); !bad || res.Correct {
		t.Fatal("corrupted rows passed the gate")
	}
}

// The serve gate must catch a wrong answer among right ones.
func TestServeGateRejectsWrongAnswers(t *testing.T) {
	w := serveWorkloads[0]
	data := w.index(800, 2)
	objs := make([]codec.Object, len(data))
	for i, p := range data {
		objs[i] = codec.Object{ID: p.id, Point: p.x}
	}
	ix, err := vindex.Build(objs, vindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := newReqGen(w, data, 2)
	rs := newResponses()
	for i := 0; i < 50; i++ {
		req := gen.next()
		var body []byte
		if req.path == "/knn" {
			cands, st := ix.KNNWithStats(req.q, k)
			body, err = serve.MarshalKNN(cands, st)
		} else {
			got, st := ix.RangeWithStats(req.q, req.radius)
			body, err = marshalRange(got, st)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i == 17 {
			body = append(body, ' ')
		}
		rs.add(req.seq, body)
	}
	if wrong, _, _ := rs.verify(ix, gen); wrong != 1 {
		t.Fatalf("gate counted %d wrong answers, want 1", wrong)
	}
}

// main must call both spawn hooks before anything else.
func TestMainCallsSpawnHooksFirst(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var body []ast.Stmt
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "main" {
			body = fn.Body.List
		}
	}
	want := []string{"knnjoin.RunWorkerIfSpawned", "shard.RunShardIfSpawned"}
	if len(body) < len(want) {
		t.Fatalf("main has %d statements", len(body))
	}
	for i, name := range want {
		es, ok := body[i].(*ast.ExprStmt)
		if !ok {
			t.Fatalf("statement %d of main is not %s()", i, name)
		}
		if call, ok := es.X.(*ast.CallExpr); !ok || types.ExprString(call.Fun) != name {
			t.Fatalf("statement %d of main is not %s()", i, name)
		}
	}
}

// BENCHMARK.json and the code must agree on the workloads, and no
// metric may be listed twice.
func TestSpecMatchesCode(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, n := range workloadNames() {
		have[n] = true
	}
	for _, w := range sp.Workloads {
		if !have[w.Name] {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(sp.Workloads) != len(have) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(have))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 9.9}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, v := range base {
		faster[i], slower[i] = v*0.8, v*1.3
	}
	if _, v := verdict(base, faster, true, 0.1); v != "gain" {
		t.Errorf("20%% faster on every pair: %s, want gain", v)
	}
	if _, v := verdict(base, slower, true, 0.1); v != "REGRESSION" {
		t.Errorf("30%% slower against a 10%% bound: %s, want REGRESSION", v)
	}
	if _, v := verdict(base, base, true, 0.1); v != "within bound" {
		t.Errorf("identical runs: %s, want within bound", v)
	}
	if won, _ := verdict(base, faster, true, 0.1); won != 1 {
		t.Errorf("won share %v, want 1", won)
	}
}

func TestSummaryListsEveryMetric(t *testing.T) {
	res := newResult("w", 1, 1, true)
	res.set("a", 2, "s", 1)
	list := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "count"}}
	s, err := res.summary(list)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(s)
	if !strings.Contains(string(raw), `"b":{"value":0,"unit":"count"}`) {
		t.Errorf("traced summary omits an inapplicable per-layer metric: %s", raw)
	}
	res.Trace = false
	if _, err := res.summary(list); err == nil {
		t.Error("an unmeasured end-to-end metric did not fail the summary")
	}
}
