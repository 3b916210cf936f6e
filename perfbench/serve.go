package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/obs"
	"knnjoin/internal/serve"
	"knnjoin/internal/shard"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

// serveWorkload is one serving workload: the indexed data, the traffic
// mix, and the open-loop rates it is driven at.
type serveWorkload struct {
	name string
	// index generates the indexed objects.
	index func(n int, seed int64) []point
	// shards > 0 serves through shard.NewRouter over that many shard
	// processes (one replica each) instead of a single-node index.
	shards int
	// rangeShare is the fraction of requests sent to /range.
	rangeShare float64
	// pool > 0 draws query points with Zipf skew from a pool of that
	// many points near the data, so hot points repeat; 0 sends a fresh
	// uniform point every time.
	pool int
	// nominal is the rate (requests/s) latency is reported at; ladder
	// holds the higher rates tried, in order, for capacity. Below a few
	// hundred requests/s the processes idle between requests, and waking
	// them dominates latency and its run-to-run spread: serve-shards2 at
	// 200/s spread twice as wide as at 600/s.
	nominal float64
	ladder  []float64
	// limitMs is the p99 latency limit a ladder rate must meet.
	limitMs float64
}

var serveWorkloads = []serveWorkload{
	{name: "serve-knn-mixed", index: func(n int, seed int64) []point { return gaussianPoints(n, 8, 8, seed) },
		rangeShare: 0.2, pool: 4096,
		nominal: 800, ladder: []float64{1600, 3200, 4800, 6400, 8000, 9600, 12800}, limitMs: 25},
	{name: "serve-shards2", index: func(n int, seed int64) []point { return uniformPoints(n, 2, seed) },
		shards:  2,
		nominal: 600, ladder: []float64{1200, 1800, 2400, 3000, 3600, 4200, 5400}, limitMs: 25},
}

// conns is the load generator's connection count: one process, at most
// two requests in flight.
const conns = 2

// request is one generated HTTP request. seq numbers the requests of a
// stream from 0; key identifies a repeated query (pool index and
// endpoint), -1 a distinct point.
type request struct {
	seq    int
	path   string
	body   []byte
	q      []float64
	radius float64
	key    int
}

// reqGen produces the workload's request stream from the seed. The
// stream's own generator is separate from the one that built the pool,
// so replay can reproduce the stream for the correctness gate instead
// of the run keeping every request.
type reqGen struct {
	w      serveWorkload
	seed   int64
	rng    *rand.Rand
	cdf    []float64 // Zipf CDF over pool ranks
	pool   [][]float64
	radius float64
	dim    int
	seq    int
}

func newReqGen(w serveWorkload, data []point, seed int64) *reqGen {
	build := rand.New(rand.NewSource(seed ^ 0x5e7e))
	g := &reqGen{w: w, seed: seed, dim: len(data[0].x)}
	if w.pool > 0 {
		g.pool = make([][]float64, w.pool)
		for i := range g.pool {
			g.pool[i] = nearTo(data[build.Intn(len(data))].x, 1, build)
		}
		// Pool order is random, so the Zipf ranks pick a random hot set.
		g.cdf = zipfCDF(w.pool, 1.0)
	}
	if w.rangeShare > 0 {
		g.radius = rangeRadius(data, build)
	}
	return g.replay()
}

// replay returns a generator that produces this one's stream from the
// start.
func (g *reqGen) replay() *reqGen {
	r := *g
	r.rng = rand.New(rand.NewSource(g.seed ^ 0x57a7))
	r.seq = 0
	return &r
}

// rangeRadius is the median distance from a data point to its 20th
// nearest neighbor over a sample: a radius that returns a modest,
// data-dependent number of objects.
func rangeRadius(data []point, rng *rand.Rand) float64 {
	var ds []float64
	for i := 0; i < 16; i++ {
		q := data[rng.Intn(len(data))].x
		dist := make([]float64, len(data))
		for j, p := range data {
			dist[j] = l2(q, p.x)
		}
		sort.Float64s(dist)
		ds = append(ds, dist[min(20, len(dist)-1)])
	}
	return median(ds)
}

func (g *reqGen) next() request {
	req := request{seq: g.seq, key: -1}
	g.seq++
	if g.pool != nil {
		idx := zipfDraw(g.cdf, g.rng)
		req.q, req.key = g.pool[idx], 2*idx
	} else {
		req.q = make([]float64, g.dim)
		for d := range req.q {
			req.q[d] = 100 * g.rng.Float64()
		}
	}
	var err error
	if g.w.rangeShare > 0 && g.rng.Float64() < g.w.rangeShare {
		req.path, req.radius = "/range", g.radius
		req.body, err = json.Marshal(serve.RangeRequest{Point: req.q, Radius: g.radius})
		if req.key >= 0 {
			req.key++
		}
	} else {
		req.path = "/knn"
		req.body, err = json.Marshal(serve.KNNRequest{Point: req.q, K: k})
	}
	if err != nil {
		panic(err) // a finite point always marshals
	}
	return req
}

// tier is one running serving stack: server, optional shard cluster and
// router, and the loopback listener in front.
type tier struct {
	srv     *serve.Server
	router  *shard.Router
	cluster *shard.Cluster
	hs      *http.Server
	served  chan struct{}
	url     string
	tracers []*obs.Tracer
}

// startTier builds the index and brings a server up until /healthz
// answers. With log non-nil it also turns on the program's tracers
// (serve.Config.Tracer, the router's, the shard processes' TraceDir)
// and the benchmark's own spans around the HTTP handler and backend.
func startTier(w serveWorkload, objs []codec.Object, dir string, log *spanLog) (*tier, *vindex.Index, error) {
	ix, err := vindex.Build(objs, vindex.Options{})
	if err != nil {
		return nil, nil, err
	}
	t := &tier{served: make(chan struct{})}
	traceDir := ""
	cfg := serve.Config{}
	if log != nil {
		traceDir = filepath.Join(dir, "trace")
		if cfg.Tracer, err = obs.NewTracer(traceDir, "serve"); err != nil {
			return nil, nil, err
		}
		t.tracers = append(t.tracers, cfg.Tracer)
	}
	var be serve.Backend = localBackend{ix}
	if w.shards > 0 {
		path := filepath.Join(dir, "index.bin")
		if err := saveIndex(ix, path); err != nil {
			return nil, nil, err
		}
		clusterDir := filepath.Join(dir, "cluster")
		if err := os.MkdirAll(clusterDir, 0o755); err != nil {
			return nil, nil, err
		}
		t.cluster, err = shard.StartCluster(shard.ClusterConfig{
			IndexPath: path, Shards: w.shards, Replicas: 1,
			Dir: clusterDir, TraceDir: traceDir,
		})
		if err != nil {
			return nil, nil, err
		}
		rcfg := shard.RouterConfig{}
		if log != nil {
			if rcfg.Tracer, err = obs.NewTracer(traceDir, "router"); err != nil {
				t.close()
				return nil, nil, err
			}
			t.tracers = append(t.tracers, rcfg.Tracer)
		}
		t.router = shard.NewRouter(t.cluster, rcfg)
		be = t.router
	}
	var h http.Handler
	if log == nil {
		if w.shards > 0 {
			t.srv = serve.NewBackend(be, "", cfg)
		} else {
			t.srv = serve.New(ix, "", cfg)
		}
		h = t.srv.Handler()
	} else {
		t.srv = serve.NewBackend(timedBackend{Backend: be, log: log}, "", cfg)
		h = instrument(t.srv.Handler(), log)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.hs = &http.Server{Handler: h}
	go func() {
		defer close(t.served)
		t.hs.Serve(ln)
	}()
	if err := waitHealthy(t.url); err != nil {
		t.close()
		return nil, nil, err
	}
	return t, ix, nil
}

func saveIndex(ix *vindex.Index, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func waitHealthy(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the HTTP server, the router and the shard processes
// (waiting for each), and flushes the tracers.
func (t *tier) close() {
	if t.hs != nil {
		t.hs.Close()
		<-t.served
	}
	if t.router != nil {
		t.router.Close()
	}
	if t.cluster != nil {
		t.cluster.Close()
	}
	for _, tr := range t.tracers {
		tr.Close()
	}
}

// localBackend adapts a *vindex.Index to serve.Backend for the traced
// single-node run, where the timing wrapper needs a Backend to wrap.
type localBackend struct{ *vindex.Index }

func (b localBackend) KNNWithStats(_ context.Context, q vector.Point, k int) ([]nnheap.Candidate, vindex.Stats, error) {
	res, st := b.Index.KNNWithStats(q, k)
	return res, st, nil
}

func (b localBackend) KNNBatchWithStats(_ context.Context, qs []vector.Point, ks []int) ([][]nnheap.Candidate, []vindex.Stats, error) {
	res, sts := b.Index.KNNBatchWithStats(qs, ks)
	return res, sts, nil
}

func (b localBackend) RangeWithStats(_ context.Context, q vector.Point, radius float64) ([]codec.Object, vindex.Stats, error) {
	res, st := b.Index.RangeWithStats(q, radius)
	return res, st, nil
}

// spanKey carries the benchmark's HTTP span ID from the handler wrapper
// to the backend wrapper through the request context.
type spanKey struct{}

// instrument wraps the server's handler in a serve.http span, parented
// under the load generator's request span named in X-Bench-Span.
func instrument(h http.Handler, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		id := log.start("serve.http", parent)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		log.end(id)
	})
}

// timedBackend records a serve.backend span around each query, so the
// HTTP layer's self time is the handler span minus its backend child.
type timedBackend struct {
	serve.Backend
	log *spanLog
}

func parentSpan(ctx context.Context) int {
	id, _ := ctx.Value(spanKey{}).(int)
	return id
}

func (b timedBackend) KNNWithStats(ctx context.Context, q vector.Point, k int) ([]nnheap.Candidate, vindex.Stats, error) {
	id := b.log.start("serve.backend", parentSpan(ctx))
	defer b.log.end(id)
	return b.Backend.KNNWithStats(ctx, q, k)
}

func (b timedBackend) RangeWithStats(ctx context.Context, q vector.Point, radius float64) ([]codec.Object, vindex.Stats, error) {
	id := b.log.start("serve.backend", parentSpan(ctx))
	defer b.log.end(id)
	return b.Backend.RangeWithStats(ctx, q, radius)
}

// responses collects a 64-bit hash of every answer, indexed by request
// sequence number, for the untimed correctness gate. Eight bytes a
// request keep the gate's memory out of the measured peak.
type responses struct {
	mu   sync.Mutex
	sums []uint64 // 0: no answer
	errs []string
}

func newResponses() *responses { return &responses{} }

// bodyHash is FNV-1a of an answer, never 0.
func bodyHash(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64() | 1
}

func (rs *responses) add(seq int, body []byte) {
	sum := bodyHash(body)
	rs.mu.Lock()
	for len(rs.sums) <= seq {
		rs.sums = append(rs.sums, 0)
	}
	rs.sums[seq] = sum
	rs.mu.Unlock()
}

func (rs *responses) note(format string, args ...any) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.errs) < 10 {
		rs.errs = append(rs.errs, fmt.Sprintf(format, args...))
	}
}

// verify replays the request stream and checks every answer against the
// body a sequential query of ix produces: serve.MarshalKNN for /knn,
// the /range encoding of RangeWithStats for /range. It returns the
// number of wrong answers and the mean per-query work accounting.
func (rs *responses) verify(ix *vindex.Index, gen *reqGen) (wrong int, meanDist, meanScanned float64) {
	type want struct {
		sum uint64
		st  vindex.Stats
	}
	byKey := map[int]want{} // repeated queries are computed once
	replay := gen.replay()
	var dist, scanned, n float64
	for seq, got := range rs.sums {
		req := replay.next()
		if got == 0 {
			continue // never sent, or failed and already counted
		}
		w, cached := byKey[req.key]
		if !cached || req.key < 0 {
			var body []byte
			var err error
			if req.path == "/knn" {
				var cands []nnheap.Candidate
				cands, w.st = ix.KNNWithStats(req.q, k)
				body, err = serve.MarshalKNN(cands, w.st)
			} else {
				var objs []codec.Object
				objs, w.st = ix.RangeWithStats(req.q, req.radius)
				body, err = marshalRange(objs, w.st)
			}
			if err != nil {
				body = nil
			}
			w.sum = bodyHash(body)
			if req.key >= 0 {
				byKey[req.key] = w
			}
		}
		if got != w.sum {
			wrong++
			rs.note("%s answer %d for %v differs from the sequential index", req.path, seq, req.q)
			continue
		}
		dist += float64(w.st.DistComputations)
		scanned += float64(w.st.PartitionsScanned)
		n++
	}
	if n > 0 {
		meanDist, meanScanned = dist/n, scanned/n
	}
	return wrong, meanDist, meanScanned
}

// marshalRange renders the /range body the server sends for a result.
func marshalRange(objs []codec.Object, st vindex.Stats) ([]byte, error) {
	resp := serve.RangeResponse{
		Objects: make([]serve.RangeObject, len(objs)),
		Stats: serve.QueryStats{DistComputations: st.DistComputations,
			PartitionsScanned: st.PartitionsScanned, PartitionsPruned: st.PartitionsPruned},
	}
	for i, o := range objs {
		resp.Objects[i] = serve.RangeObject{ID: o.ID, Point: o.Point}
	}
	return json.Marshal(resp)
}

// stepResult is one open-loop step at a fixed rate.
type stepResult struct {
	rate       float64
	attempted  int
	failed     int
	knnMs      []float64 // latency from when each request was due
	rangeMs    []float64
	lateMs     []float64 // how late the generator dispatched each request
	backlogMax int
	aborted    bool // the backlog grew past the abort threshold
}

// meets reports whether the step kept the p99 latency of all requests
// within limitMs with no failure (a failed or refused request misses any
// limit). Latency runs from when a request was due, so a backlog that
// grows through the step shows as a p99 over the limit.
func (s stepResult) meets(limitMs float64) bool {
	if s.aborted || s.failed > 0 {
		return false
	}
	all := append(append([]float64(nil), s.knnMs...), s.rangeMs...)
	return len(all) > 0 && quantile(all, 0.99) <= limitMs
}

// openLoop sends rate×dur requests on a fixed schedule over at most
// conns connections, whatever the answers' speed. Each request is timed
// from when it was due, so a stall also charges the requests queued
// behind it. A backlog beyond one second of traffic aborts the step.
func openLoop(client *http.Client, url string, gen *reqGen, rate float64, dur time.Duration, rs *responses, log *spanLog) stepResult {
	n := int(rate * dur.Seconds())
	out := stepResult{rate: rate}
	type job struct {
		req request
		due time.Time
	}
	queue := make(chan job, n) // sized to the number of sends
	var started atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				started.Add(1)
				id := log.start("loadgen.request", 0)
				body, err := post(client, url+j.req.path, j.req.body, id)
				log.end(id)
				lat := float64(time.Since(j.due).Nanoseconds()) / 1e6
				if err == nil {
					rs.add(j.req.seq, body)
				} else {
					rs.note("%s: %v", j.req.path, err)
				}
				mu.Lock()
				switch {
				case err != nil:
					out.failed++
				case j.req.path == "/knn":
					out.knnMs = append(out.knnMs, lat)
				default:
					out.rangeMs = append(out.rangeMs, lat)
				}
				mu.Unlock()
			}
		}()
	}
	t0 := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		req := gen.next()
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out.lateMs = append(out.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
		backlog := i - int(started.Load())
		out.backlogMax = max(out.backlogMax, backlog)
		if backlog > int(rate) {
			out.aborted = true
			break
		}
		queue <- job{req, due}
		out.attempted++
	}
	close(queue)
	wg.Wait()
	return out
}

// post sends one request and returns the body of a 200 answer.
func post(client *http.Client, url string, body []byte, span int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	return raw, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
			DisableCompression: true,
		},
	}
}

func runServe(w serveWorkload, c runConfig, res *result) error {
	data := w.index(c.n, c.seed)
	in, err := writeInput(c.dir, "index", data)
	if err != nil {
		return err
	}
	res.Inputs[in.name] = in.sha
	gen := newReqGen(w, data, c.seed)
	data = nil
	loaded, err := readInputs([]string{in.path}, nil, 0)
	if err != nil {
		return err
	}
	objs := loaded[0]

	// Set-up: index build plus server ready (shard spawn and handshake
	// included), repeated so the median is steady; the last tier stays.
	var setup []time.Duration
	var t *tier
	var ix *vindex.Index
	for i := 0; i < serveSetupReps; i++ {
		if t != nil {
			t.close()
		}
		runtime.GC()
		t0 := time.Now()
		if t, ix, err = startTier(w, objs, filepath.Join(c.dir, fmt.Sprintf("tier%d", i)), nil); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0))
	}
	res.set("setup_s", median(durSeconds(setup)), "s", len(setup))

	client := newClient()
	defer client.CloseIdleConnections()
	rs := newResponses()
	// Warm-up at the nominal rate fills the cache and connection pool;
	// its answers are checked but not timed.
	warm := openLoop(client, t.url, gen, w.nominal, c.seconds/10, rs, nil)
	nominal := openLoop(client, t.url, gen, w.nominal, c.seconds/2, rs, nil)
	// Peak memory at the nominal load: how far the ladder climbs must
	// not move it.
	res.set("mem_peak_mb", c.mem.peakMB(), "MiB", 0)
	steps := []stepResult{warm, nominal}
	capacity := 0.0
	if nominal.meets(w.limitMs) {
		capacity = w.nominal
		for _, rate := range w.ladder {
			st := openLoop(client, t.url, gen, rate, c.seconds*4/10/time.Duration(len(w.ladder)), rs, nil)
			steps = append(steps, st)
			if !st.meets(w.limitMs) {
				break
			}
			capacity = rate
		}
	}
	var curve []string
	for _, s := range steps[1:] {
		all := append(append([]float64(nil), s.knnMs...), s.rangeMs...)
		curve = append(curve, fmt.Sprintf("%g/s:p99=%.3gms,backlog=%d,failed=%d",
			s.rate, quantile(all, 0.99), s.backlogMax, s.failed))
	}
	res.Info["ladder"] = strings.Join(curve, " ")
	st := t.srv.Stats()
	var rst shard.RouterStats
	if t.router != nil {
		rst = t.router.Stats()
	}
	t.close()

	for _, s := range steps {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	wrong, meanDist, meanScanned := rs.verify(ix, gen)
	res.Failed += wrong
	for _, e := range rs.errs {
		res.fail("%s", e)
	}
	if res.Failed > 0 && len(rs.errs) == 0 {
		res.fail("%d failed requests", res.Failed)
	}
	recordLatency(res, "knn", nominal.knnMs)
	recordLatency(res, "range", nominal.rangeMs)
	res.set("op_p50_ms", median(nominal.knnMs), "ms", len(nominal.knnMs))
	res.set("capacity_qps", capacity, "1/s", 0)
	res.set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", 0)
	res.set("loadgen.late_p99_ms", quantile(nominal.lateMs, 0.99), "ms", len(nominal.lateMs))
	res.set("loadgen.backlog_max", float64(nominal.backlogMax), "count", 0)
	res.set("serve.cache_hit_rate", st.Cache.HitRate, "ratio", 0)
	res.set("vindex.dist_comps_per_query", meanDist, "count", 0)
	res.set("vindex.partitions_scanned_per_query", meanScanned, "count", 0)
	if w.shards > 0 {
		if rst.Queries == 0 || rst.ScanRPCs == 0 {
			res.fail("router answered no query through the shard processes")
		}
		res.set("shard.contacted_per_query", rst.AvgShardsContacted, "count", 0)
		res.set("shard.scan_rpcs_per_query", float64(rst.ScanRPCs)/float64(max(rst.Queries, 1)), "count", 0)
		res.set("shard.failovers", float64(rst.Failovers), "count", 0)
	}
	if c.trace {
		return traceServe(w, c, objs, gen, median(nominal.knnMs), res)
	}
	return nil
}

// recordLatency stores the median and, when the samples support it,
// the 99th percentile of one endpoint's latencies.
func recordLatency(res *result, endpoint string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	res.set(endpoint+"_p50_ms", median(ms), "ms", len(ms))
	if supports(len(ms), 0.99) {
		res.set(endpoint+"_p99_ms", quantile(ms, 0.99), "ms", len(ms))
	} else if supports(len(ms), 0.9) {
		res.set(endpoint+"_p90_ms", quantile(ms, 0.9), "ms", len(ms))
	}
}

// traceServe repeats the nominal step against a traced tier: the
// program's serve and router tracers on, the shard processes writing
// scan spans, and the benchmark's spans around the request, the HTTP
// handler and the backend call.
func traceServe(w serveWorkload, c runConfig, objs []codec.Object, gen *reqGen, untracedP50 float64, res *result) error {
	log := &spanLog{}
	dir := filepath.Join(c.dir, "traced")
	if _, err := readInputs([]string{filepath.Join(c.dir, "index.csv")}, log, 0); err != nil {
		return err
	}
	t, ix, err := startTier(w, objs, dir, log)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	rs := newResponses()
	warm := openLoop(client, t.url, gen, w.nominal, c.seconds/10, rs, nil)
	step := openLoop(client, t.url, gen, w.nominal, c.seconds/2, rs, log)
	t.close()
	res.Attempted += warm.attempted + step.attempted
	res.Failed += warm.failed + step.failed
	wrong, _, _ := rs.verify(ix, gen)
	res.Failed += wrong
	for _, e := range rs.errs {
		res.fail("traced: %s", e)
	}

	self := log.selfTimes()
	durs := log.durations()
	res.set("dataset.read_s", sum(durSeconds(durs["dataset.read"])), "s", 1)
	ms := func(ds []time.Duration) []float64 {
		out := durSeconds(ds)
		for i := range out {
			out[i] *= 1000
		}
		return out
	}
	if xs := ms(self["loadgen.request"]); len(xs) > 0 {
		res.set("loadgen.self_ms_p50", median(xs), "ms", len(xs))
	}
	if xs := ms(self["serve.http"]); len(xs) > 0 {
		res.set("serve.http_self_ms_p50", median(xs), "ms", len(xs))
	}
	if xs := ms(durs["serve.backend"]); len(xs) > 0 {
		res.set("serve.backend_ms_p50", median(xs), "ms", len(xs))
		res.set("serve.backend_ms_p99", quantile(xs, 0.99), "ms", len(xs))
	}
	if w.shards > 0 {
		spans, err := obs.ReadDir(filepath.Join(dir, "trace"))
		if err != nil {
			return err
		}
		var rpc []float64
		for _, sp := range spans {
			if sp.Name == "scan-rpc" {
				rpc = append(rpc, float64(sp.EndNs-sp.StartNs)/1e6)
			}
		}
		if len(rpc) > 0 {
			res.set("shard.rpc_ms_p50", median(rpc), "ms", len(rpc))
		}
	}
	traced := median(step.knnMs)
	res.set("trace.overhead_pct", 100*(traced-untracedP50)/untracedP50, "%", len(step.knnMs))
	return log.write(filepath.Join(c.dir, "spans.jsonl"))
}
