#!/usr/bin/env python3
"""Bench-regression gate: diff fresh BENCH_*.json against checked-in baselines.

Every bench binary writes a BENCH_<name>.json (see bench/bench_common.h)
with throughput metrics (unit ending in "/s"), latency metrics ("ms") and
boolean assertions. This tool compares a fresh set of those files against
the committed baselines under bench/baselines/ and fails when any
throughput metric regressed by more than --tolerance (default 15%).

Gate rules:
  * unit ends in "/s"  -> gated: fresh >= baseline * (1 - tolerance)
  * unit "ms"          -> informational only (latency on shared runners is
                          too noisy to gate; the numbers are still printed)
  * unit "bool" / "x"  -> informational (the bench binaries already ride
                          their own assertions on their exit codes)
  * a baseline metric missing from the fresh run -> failure (a silently
    vanished bench row is itself a regression)
  * fresh-only metrics -> fine (benches are allowed to grow)
  * a host record (nproc, CPU model, ISA flags) that differs from the
    baseline's, or a baseline without one -> a NOTE, not a failure: the
    numbers may come from different machines

Metrics are matched by (metric name + numeric attributes), so e.g.
ingest_throughput@threads=4 only ever compares against itself.

Refreshing baselines (after an intentional perf change, on a machine of
the same class that produced the old ones): run the benches exactly as
CI does, then --update. The recipe lives in README.md, "Bench-regression
gate".

Usage:
    bench_compare.py [--baseline-dir bench/baselines] [--fresh-dir build]
                     [--tolerance 0.15] [--update] [--self-test]

--baseline-dir defaults to the repo's bench/baselines resolved relative
to this script, so the tool works from any cwd (including build/).
"""

import argparse
import glob
import json
import os
import shutil
import sys


def metric_key(metric):
    """Identity of a metric row: name + every numeric attribute."""
    attrs = {k: v for k, v in metric.items() if k not in ("name", "unit", "value")}
    return (metric["name"],) + tuple(sorted(attrs.items()))


def format_key(key):
    name = key[0]
    attrs = ",".join(f"{k}={v:g}" for k, v in key[1:])
    return f"{name}[{attrs}]" if attrs else name


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, {metric_key(m): m for m in doc.get("metrics", [])}


def is_gated(metric):
    return metric.get("unit", "").endswith("/s")


def compare_file(name, baseline_path, fresh_path, tolerance):
    """Returns (failures, report_lines) for one BENCH_*.json pair."""
    failures = []
    lines = []
    base_doc, base = load_metrics(baseline_path)
    fresh_doc, fresh = load_metrics(fresh_path)

    if base_doc.get("scale") != fresh_doc.get("scale"):
        failures.append(
            f"{name}: scale mismatch (baseline={base_doc.get('scale')}, "
            f"fresh={fresh_doc.get('scale')}) — run the bench at the "
            f"baseline's DEEPCSI_SCALE before comparing"
        )
        return failures, lines

    base_host, fresh_host = base_doc.get("host"), fresh_doc.get("host")
    if base_host is None:
        lines.append("  NOTE baseline has no host record; it may come from another machine")
    elif base_host != fresh_host:
        lines.append(f"  NOTE host differs from the baseline's: {base_host} -> {fresh_host}")

    for key, metric in sorted(base.items()):
        label = format_key(key)
        if key not in fresh:
            if is_gated(metric):
                failures.append(f"{name}: {label} missing from fresh run")
            continue
        base_value = metric["value"]
        fresh_value = fresh[key]["value"]
        if not is_gated(metric) or base_value <= 0:
            lines.append(f"  info  {name}: {label}  {base_value:g} -> {fresh_value:g} {metric.get('unit', '')}")
            continue
        ratio = fresh_value / base_value
        verdict = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        lines.append(
            f"  {verdict:>5} {name}: {label}  {base_value:,.1f} -> "
            f"{fresh_value:,.1f} {metric['unit']} ({ratio:.2f}x)"
        )
        if verdict == "REGRESSED":
            failures.append(
                f"{name}: {label} regressed {(1.0 - ratio) * 100.0:.1f}% "
                f"({base_value:,.1f} -> {fresh_value:,.1f} {metric['unit']}, "
                f"tolerance {tolerance * 100:.0f}%)"
            )
    return failures, lines


def run_compare(baseline_dir, fresh_dir, tolerance, update):
    baseline_files = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baseline_files:
        print(f"bench_compare: no baselines under {baseline_dir}", file=sys.stderr)
        return 1

    if update:
        # Refresh every existing baseline AND adopt fresh-only files, so a
        # newly added bench enters the gate the first time its author runs
        # the documented refresh flow.
        fresh_files = sorted(glob.glob(os.path.join(fresh_dir, "BENCH_*.json")))
        if not fresh_files:
            print(f"bench_compare: no fresh BENCH_*.json under {fresh_dir}", file=sys.stderr)
            return 1
        for fresh_path in fresh_files:
            base_path = os.path.join(baseline_dir, os.path.basename(fresh_path))
            verb = "refreshed" if os.path.exists(base_path) else "adopted new baseline"
            shutil.copyfile(fresh_path, base_path)
            print(f"bench_compare: {verb} {base_path}")
        stale = 0
        for base_path in baseline_files:
            if not os.path.exists(os.path.join(fresh_dir, os.path.basename(base_path))):
                print(f"bench_compare: no fresh {os.path.basename(base_path)} to refresh from", file=sys.stderr)
                stale += 1
        return 0 if stale == 0 else 1

    all_failures = []
    for base_path in baseline_files:
        name = os.path.basename(base_path)
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            all_failures.append(f"{name}: not produced by the fresh bench run")
            continue
        failures, lines = compare_file(name, base_path, fresh_path, tolerance)
        print(f"bench_compare: {name}")
        for line in lines:
            print(line)
        all_failures.extend(failures)

    # A fresh BENCH_*.json with no baseline is not a failure (benches are
    # allowed to grow), but stay loud: until a baseline is committed via
    # --update, that bench is NOT gated.
    baseline_names = {os.path.basename(p) for p in baseline_files}
    for fresh_path in sorted(glob.glob(os.path.join(fresh_dir, "BENCH_*.json"))):
        if os.path.basename(fresh_path) not in baseline_names:
            print(f"bench_compare: WARNING {os.path.basename(fresh_path)} has no "
                  f"baseline — run with --update and commit {baseline_dir} to gate it")

    if all_failures:
        print(f"\nbench_compare: {len(all_failures)} throughput regression(s) beyond {tolerance * 100:.0f}%:", file=sys.stderr)
        for failure in all_failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    print(f"\nbench_compare: all gated metrics within {tolerance * 100:.0f}% of baselines")
    return 0


# --------------------------------------------------------------- self-test

def self_test():
    """Fixture-level check of the gate logic itself (runs as a ctest)."""
    import contextlib
    import io
    import tempfile

    def bench_doc(throughput, latency=5.0, scale="quick"):
        return {
            "bench": "fixture",
            "scale": scale,
            "metrics": [
                {"name": "serving_throughput", "unit": "reports/s",
                 "value": throughput, "producers": 2, "policy": 0},
                {"name": "batch_latency_p50_ms", "unit": "ms",
                 "value": latency, "producers": 2, "policy": 0},
                {"name": "verdicts_bit_identical", "unit": "bool", "value": 1},
            ],
        }

    cases = [
        # (fresh throughput, fresh latency, expected exit) vs baseline 1000/s
        ("same numbers pass", bench_doc(1000.0), 0),
        ("14% slower passes at 15% tolerance", bench_doc(860.0), 0),
        ("20% slower fails", bench_doc(800.0), 1),
        ("faster passes", bench_doc(1500.0), 0),
        ("latency x10 alone does not gate", bench_doc(1000.0, latency=50.0), 0),
        ("scale mismatch fails", bench_doc(1000.0, scale="full"), 1),
    ]
    failures = 0
    for label, fresh_doc, expected in cases:
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "baselines")
            fresh_dir = os.path.join(tmp, "fresh")
            os.makedirs(base_dir)
            os.makedirs(fresh_dir)
            with open(os.path.join(base_dir, "BENCH_fixture.json"), "w") as f:
                json.dump(bench_doc(1000.0), f)
            with open(os.path.join(fresh_dir, "BENCH_fixture.json"), "w") as f:
                json.dump(fresh_doc, f)
            got = run_compare(base_dir, fresh_dir, tolerance=0.15, update=False)
            status = "ok" if bool(got) == bool(expected) else "FAIL"
            if status == "FAIL":
                failures += 1
            print(f"self-test {status}: {label} (exit {got}, expected {expected})")

    # A missing gated metric must fail; a missing ungated one must not.
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "baselines")
        fresh_dir = os.path.join(tmp, "fresh")
        os.makedirs(base_dir)
        os.makedirs(fresh_dir)
        with open(os.path.join(base_dir, "BENCH_fixture.json"), "w") as f:
            json.dump(bench_doc(1000.0), f)
        gutted = bench_doc(1000.0)
        gutted["metrics"] = [m for m in gutted["metrics"] if m["unit"] != "reports/s"]
        with open(os.path.join(fresh_dir, "BENCH_fixture.json"), "w") as f:
            json.dump(gutted, f)
        got = run_compare(base_dir, fresh_dir, tolerance=0.15, update=False)
        status = "ok" if got == 1 else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"self-test {status}: vanished throughput metric fails (exit {got})")

    # --update must adopt a fresh-only file so new benches become gated.
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "baselines")
        fresh_dir = os.path.join(tmp, "fresh")
        os.makedirs(base_dir)
        os.makedirs(fresh_dir)
        with open(os.path.join(base_dir, "BENCH_fixture.json"), "w") as f:
            json.dump(bench_doc(1000.0), f)
        for name in ("BENCH_fixture.json", "BENCH_newbench.json"):
            with open(os.path.join(fresh_dir, name), "w") as f:
                json.dump(bench_doc(1200.0), f)
        got = run_compare(base_dir, fresh_dir, tolerance=0.15, update=True)
        adopted = os.path.exists(os.path.join(base_dir, "BENCH_newbench.json"))
        status = "ok" if got == 0 and adopted else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"self-test {status}: --update adopts fresh-only baselines (exit {got}, adopted {adopted})")

    # A baseline from another host is a NOTE, not a failure.
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "baselines")
        fresh_dir = os.path.join(tmp, "fresh")
        os.makedirs(base_dir)
        os.makedirs(fresh_dir)
        for path, nproc in ((base_dir, 2), (fresh_dir, 4)):
            with open(os.path.join(path, "BENCH_fixture.json"), "w") as f:
                json.dump(dict(bench_doc(1000.0), host={"nproc": nproc, "cpu": "fixture"}), f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = run_compare(base_dir, fresh_dir, tolerance=0.15, update=False)
        noted = "NOTE host differs" in out.getvalue()
        status = "ok" if got == 0 and noted else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"self-test {status}: a different host notes and passes (exit {got}, note {noted})")

    print("self-test:", "PASSED" if failures == 0 else f"{failures} case(s) FAILED")
    return 0 if failures == 0 else 1


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-dir",
                        default=os.path.join(repo_root, "bench", "baselines"))
    parser.add_argument("--fresh-dir", default=os.path.join(repo_root, "build"))
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional throughput drop (default 0.15)")
    parser.add_argument("--update", action="store_true",
                        help="copy fresh BENCH_*.json over the baselines instead of comparing")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture tests of the gate logic")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_compare(args.baseline_dir, args.fresh_dir, args.tolerance, args.update)


if __name__ == "__main__":
    sys.exit(main())
