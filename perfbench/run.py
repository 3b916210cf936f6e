#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload join-gauss8-self --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --out results.jsonl
    python3 perfbench/run.py compare base.jsonl change.jsonl

The binary, its Go build cache and every scratch file stay under
.bench_build/ in the checkout. "--workload all" runs each workload in
its own process (so peak memory is per workload) and exits non-zero if
any run fails its correctness gate.
"""
import json
import os
import subprocess
import sys

BUILD = ".bench_build"
TMP = os.path.abspath(os.path.join(BUILD, "tmp"))


def build():
    if not os.path.isfile("BENCHMARK.json") or not os.path.isfile("go.mod"):
        sys.exit("perfbench: run from the repository root (BENCHMARK.json and go.mod needed)")
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.abspath(os.path.join(BUILD, "gocache")),
        GOPATH=os.path.abspath(os.path.join(BUILD, "gopath")),
        TMPDIR=TMP,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.abspath(os.path.join(BUILD, "perfbench"))
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd="perfbench", env=env)
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main(argv):
    binary = build()
    env = dict(os.environ, TMPDIR=TMP)
    if "--workload" in argv and argv[argv.index("--workload") + 1] == "all":
        i = argv.index("--workload")
        names = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
        code = 0
        for name in names:
            args = argv[:i] + ["--workload", name] + argv[i + 2:]
            code |= subprocess.run([binary] + args, env=env).returncode
        return code
    return subprocess.run([binary] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
