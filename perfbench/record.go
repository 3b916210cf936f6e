package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// value is one measured metric: its number, unit and, for timings, the
// number of samples the number summarizes.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run of one workload measured. It is written
// as one JSON line to the --out file, which compare mode reads back.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Inputs    map[string]string `json:"inputs"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	// Info holds descriptive facts of the run (the plan Auto chose, the
	// jobs that ran) that are not metrics.
	Info    map[string]string `json:"info,omitempty"`
	Metrics map[string]value  `json:"metrics"`
}

func newResult(workload string, seed int64, seconds float64, trace bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Inputs: map[string]string{}, Info: map[string]string{}, Metrics: map[string]value{}, Correct: true,
	}
}

func (r *result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = value{Value: v, Unit: unit, Samples: samples}
}

// fail marks the run incorrect, keeping the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, msg)
	}
}

// host identifies the machine, toolchain and source a result came from.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	SourceSHA  string `json:"source_sha256"`
}

func hostInfo() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", GoVersion: runtime.Version(), GitRev: "none",
		SourceSHA: sourceHash("."),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git metadata has no revision; the source hash
	// still identifies the code measured.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
	}
	return h
}

// sourceHash hashes every Go source and go.mod file under root (paths
// and contents, in path order), skipping build output and VCS data.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memSampler tracks the peak resident memory of the benchmark process
// plus its child processes (join workers, shard replicas). The process's
// own peak is the kernel's VmHWM; children are sampled every interval
// and the peak of their summed VmHWM kept, because they come and go.
type memSampler struct {
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	children int64 // peak summed child VmHWM, bytes
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	var sum int64
	for _, pid := range childPIDs(os.Getpid()) {
		sum += statusBytes(pid, "VmHWM:")
	}
	m.mu.Lock()
	if sum > m.children {
		m.children = sum
	}
	m.mu.Unlock()
}

// peakMB returns the peak resident MiB of the process and its children
// so far.
func (m *memSampler) peakMB() float64 {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	return float64(statusBytes(os.Getpid(), "VmHWM:")+m.children) / (1 << 20)
}

// close stops the sampler and waits for it.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// childPIDs lists the live processes whose parent is ppid.
func childPIDs(ppid int) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// The command name is parenthesized and may hold spaces; the
		// parent PID is the second field after it.
		i := bytes.LastIndexByte(raw, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(string(raw[i+1:]))
		if len(f) > 1 && f[1] == strconv.Itoa(ppid) {
			out = append(out, pid)
		}
	}
	return out
}

// statusBytes reads one "kB" field of /proc/<pid>/status, in bytes.
func statusBytes(pid int, field string) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// quantile is the nearest-rank q quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	idx := int(math.Ceil(q*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// supports reports whether n samples hold at least ten beyond the q
// quantile, the rule for reporting a percentile at all.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// durSeconds converts durations to float seconds.
func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// spec is the benchmark's metric catalogue as BENCHMARK.json fixes it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// summary is the last line a run prints: the contract's verdict and the
// metrics of one list (end-to-end untraced, per-layer traced). A
// per-layer metric that does not apply to the workload reads 0.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) summary(list []metricSpec) (summary, error) {
	s := summary{Correct: r.Correct && r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]value{}}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok {
			if !r.Trace {
				return s, fmt.Errorf("workload %s did not measure end-to-end metric %s", r.Workload, m.Name)
			}
			v = value{Unit: m.Unit}
		}
		if v.Unit != m.Unit {
			return s, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		s.Metrics[m.Name] = value{Value: v.Value, Unit: v.Unit}
	}
	return s, nil
}

// printHuman writes every measured metric, sorted, one per line.
func (r *result) printHuman(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d cpu=%q go=%s git=%s src=%.12s\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.CPU, r.Host.GoVersion, r.Host.GitRev, r.Host.SourceSHA)
	for _, n := range slices.Sorted(maps.Keys(r.Inputs)) {
		fmt.Fprintf(w, "input %s sha256=%s\n", n, r.Inputs[n])
	}
	for _, n := range slices.Sorted(maps.Keys(r.Info)) {
		fmt.Fprintf(w, "info %s: %s\n", n, r.Info[n])
	}
	for _, n := range slices.Sorted(maps.Keys(r.Metrics)) {
		v := r.Metrics[n]
		if v.Samples > 0 {
			fmt.Fprintf(w, "  %-36s %14.6g %-8s (n=%d)\n", n, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "ERROR %s\n", e)
	}
}
