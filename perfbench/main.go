// Command perfbench is the repository's benchmark: it runs one workload
// against the code in the enclosing checkout, checks every output, and
// prints each metric by name with its unit. The last line of standard
// output is the JSON verdict: the end-to-end metrics of BENCHMARK.json
// (untraced run) or its per-layer metrics (--trace 1).
//
//	perfbench --workload join-gauss8-self --seed 1 --seconds 10 --trace 0 [--out results.jsonl]
//	perfbench compare parent.jsonl change.jsonl
//
// Run it through run.py from the repository root, which builds it
// first. See README.md for the workloads, metrics and measured numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"knnjoin"
	"knnjoin/internal/shard"
)

func main() {
	// Both calls must come first: the join engine re-executes this
	// binary as its worker processes and the shard tier as its shard
	// processes. Without them Workers and shards silently fall back to
	// in-process execution.
	knnjoin.RunWorkerIfSpawned()
	shard.RunShardIfSpawned()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// How many times a run repeats its set-up; setup_s is the median.
// Loading CSV takes well under a second, so joins repeat it more.
const (
	joinSetupReps  = 9
	serveSetupReps = 5
)

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// n is the object count of every generated dataset (50 000; the
	// tests run smaller).
	n int
	// dir is the run's scratch directory (inputs, spans, index files).
	dir string
	// mem tracks the run's peak resident memory.
	mem *memSampler
}

// workloadNames lists every workload in the order they are documented.
func workloadNames() []string {
	var out []string
	for _, w := range joinWorkloads {
		out = append(out, w.name)
	}
	for _, w := range serveWorkloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload generates the inputs, measures and checks one workload.
func runWorkload(name string, c runConfig) (*result, error) {
	res := newResult(name, c.seed, c.seconds.Seconds(), c.trace)
	res.Host = hostInfo()
	c.mem = startMemSampler(100 * time.Millisecond)
	defer c.mem.close()
	var err error
	found := false
	for _, w := range joinWorkloads {
		if w.name == name {
			found, err = true, runJoin(w, c, res)
		}
	}
	for _, w := range serveWorkloads {
		if w.name == name {
			found, err = true, runServe(w, c, res)
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append the full result as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "runs", *workload+"-"+strconv.FormatInt(*seed, 10)+"-"+strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	c := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, n: 50000, dir: dir}
	res, err := runWorkload(*workload, c)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.printHuman(stdout)
	list := sp.EndToEnd
	if res.Trace {
		list = sp.PerLayer
	}
	sum, err := res.summary(list)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := appendJSONLine(*out, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

func appendJSONLine(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
