#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the harness from source (into .bench_build/ at the repository
root), runs one workload, checks the result against BENCHMARK.json and
prints the result as the last line of standard output:

    python3 servebench/run.py --workload wire_quick --seed 7 --seconds 30 --trace 0
    python3 servebench/run.py --self-test

Exit status: 0 on a correct run, 1 when the correctness gate or the
metric schema fails, 2 when the benchmark cannot build or run at all.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "servebench-out")
HARNESS = os.path.join(BUILD, "servebench")
SELFTEST = os.path.join(BUILD, "servebench_selftest")
RUN_TIMEOUT_S = 170

# Per-layer metrics computed here from the span file of a traced run:
# the median self time of each live-run span that has children. A
# `residence` span has none (queue wait and batch classify happen inside
# the program), so its self time is serving.residence_ms_p50.
SPAN_METRICS = {
    "trace.ingress_self_ms_p50": ("ingress", "ms"),
    "trace.send_self_ms_p50": ("send", "ms"),
}


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no DeepCSI sources next to the benchmark (expected %s/src)" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "servebench_selftest", "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def harness_env():
    env = dict(os.environ)
    env["DEEPCSI_SIMD"] = "avx2_int8"
    env["DEEPCSI_THREADS"] = "1"
    return env


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def source_digest():
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.*"),
                             recursive=True))
    for path in files + [os.path.join(ROOT, "CMakeLists.txt")]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. Returns {span id: self time in microseconds}."""
    children = {}
    for s in spans.values():
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in spans.items():
        start, end = s["start_us"], s["end_us"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(sid, []), key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], cursor), min(c["end_us"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = max(0.0, end - start - covered)
    return out


def span_metrics(path):
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    selfs = self_times(spans)
    metrics = {}
    for metric, (name, unit) in SPAN_METRICS.items():
        values = [selfs[i] / 1e3 for i, s in spans.items() if s["name"] == name]
        if not values:
            fail("span file %s has no '%s' spans" % (path, name), 1)
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
    return metrics


def run_workload(args):
    spec = load_spec()
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=harness_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %ds" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])

    correct = bool(result["correct"])
    metrics = result["metrics"]
    if correct and args.trace:
        span_file = os.path.join(OUT, "spans-%s.jsonl" % args.workload)
        os.replace(result["spans"], span_file)
        result["spans"] = span_file
        metrics.update(span_metrics(span_file))
    for failure in result["gate"]["failures"]:
        log("correctness gate: " + failure)
    if correct:
        want = expected_metrics(spec, args.trace)
        got = {k: v["unit"] for k, v in metrics.items()}
        if got != want:
            log("metrics printed %s differ from BENCHMARK.json %s"
                % (sorted(got.items()), sorted(want.items())))
            correct = False
    if not correct:
        metrics = {}

    result["host"]["git_commit"] = git_commit()
    result["host"]["source_sha256"] = source_digest()
    with open(os.path.join(OUT, "result-%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(result, f, indent=1)
    print("host " + json.dumps(result["host"], sort_keys=True))
    print("gate " + json.dumps(result["gate"], sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    for name, m in metrics.items():
        print("metric %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def self_test():
    spec = load_spec()
    build()
    ok = True
    proc = subprocess.run([SELFTEST])
    ok &= proc.returncode == 0

    # Schema: every metric in BENCHMARK.json is printed, with its unit, in
    # the mode that owns it, and nothing else is.
    listed = json.loads(subprocess.run([HARNESS, "--list-metrics"],
                                       capture_output=True, text=True,
                                       env=harness_env()).stdout)
    schema_ok = True
    printed = {False: {}, True: {}}
    for m in listed:
        printed[m["traced"]][m["name"]] = m["unit"]
    for name, (_, unit) in SPAN_METRICS.items():
        printed[True][name] = unit
    for trace in (False, True):
        want = expected_metrics(spec, trace)
        if printed[trace] != want:
            print("FAIL schema (trace=%d): harness %s vs BENCHMARK.json %s"
                  % (trace, sorted(printed[trace].items()),
                     sorted(want.items())))
            schema_ok = False
        for name, unit in want.items():
            if not name or not unit:
                print("FAIL schema: metric without a name or unit")
                schema_ok = False
    print("%s schema" % ("ok  " if schema_ok else "FAIL"))
    ok &= schema_ok

    # Self time: a parent fully tiled by two children has none; a child
    # sticking out of its parent only covers the overlap.
    spans = {
        1: {"id": 1, "parent": 0, "start_us": 0.0, "end_us": 10.0},
        2: {"id": 2, "parent": 1, "start_us": 0.0, "end_us": 4.0},
        3: {"id": 3, "parent": 1, "start_us": 4.0, "end_us": 10.0},
        4: {"id": 4, "parent": 2, "start_us": 1.0, "end_us": 2.5},
        5: {"id": 5, "parent": 3, "start_us": 8.0, "end_us": 12.0},
    }
    want = {1: 0.0, 2: 2.5, 3: 4.0, 4: 1.5, 5: 4.0}
    got = self_times(spans)
    span_ok = all(abs(got[k] - v) < 1e-9 for k, v in want.items())
    print("%s span self times" % ("ok  " if span_ok else "FAIL"))
    ok &= span_ok
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
