#!/usr/bin/env python3
"""Benchmark of silicond: build it from source, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1        # every workload, a table
    python3 perfbench/run.py --selftest            # the benchmark's unit tests

The first run configures and builds perfbench/CMakeLists.txt (the model
libraries, silicond and perfbench_load) into $CARGO_TARGET_DIR, or
.bench_build when it is unset.  Each run prints a provenance line and,
as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of the traced replay with --trace 1.  A run that
is not correct prints no metrics and exits non-zero.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["point_hot", "point_cold", "explore"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configure (quick once cached), then build `targets` incrementally."""
    for needed in ("src/CMakeLists.txt", "tools/silicond.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out, "-j", jobs, "--target"] + targets]
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed; see {log_path}")
    return out


def cmake_cache(out):
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def source_sha():
    """git HEAD when the checkout is a repository, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()


def provenance(out, details, run_dir):
    cache = cmake_cache(out)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = compiler
    simd = "unknown"
    log = os.path.join(run_dir, "silicond.log")
    if os.path.isfile(log):
        with open(log) as f:
            m = re.search(r'"simd_target":"([^"]+)"', f.read())
            if m:
                simd = m.group(1)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": details.get("cpu_model", platform.processor()),
        "compiler": version,
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                  cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip(),
        "build_type": build_type,
        "simd_target": simd,
        "git_sha": source_sha(),
        "silicond_command": details.get("silicond_command", ""),
        "server_threads": details.get("server_threads"),
        "seed": details.get("seed"),
    }


def declared_metrics():
    """Metric names from BENCHMARK.json (run from the repository root)."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])
    except (OSError, ValueError, KeyError):
        return None, None


def run_workload(out, args, workload, trace):
    run_dir = os.path.join(out, "run", workload)
    os.makedirs(run_dir, exist_ok=True)
    log_path = os.path.join(run_dir, "silicond.log")
    if os.path.exists(log_path):
        os.remove(log_path)
    cmd = [os.path.join(out, "perfbench_load"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0",
           "--silicond", os.path.join(out, "silicond"),
           "--server-threads", str(args.server_threads), "--run-dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: perfbench_load exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: perfbench_load printed no report (exit {proc.returncode})")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: unreadable report: {lines[-1][:200]}")
    report["provenance"] = provenance(out, report.get("details", {}), run_dir)
    report["run_exit"] = proc.returncode
    return report


def result_line(report, trace):
    e2e_names, layer_names = declared_metrics()
    metrics = {}
    correct = bool(report["correct"]) and report["run_exit"] == 0
    if trace:
        layers = report["layers"]
        units = LAYER_UNITS
        for name in layer_names if layer_names is not None else sorted(layers):
            if name not in layers:
                correct = False
                print(f"perfbench: per-layer metric {name} missing", file=sys.stderr)
                continue
            metrics[name] = {"value": layers[name], "unit": units.get(name, "")}
    else:
        e2e = report["end_to_end"]
        for name in e2e_names if e2e_names is not None else sorted(e2e):
            if name not in e2e:
                correct = False
                print(f"perfbench: end-to-end metric {name} missing", file=sys.stderr)
                continue
            metrics[name] = {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
    if not correct:
        metrics = {}  # an incorrect run publishes no numbers
    return {"correct": correct, "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


# Units of the per-layer metrics (perfbench_load reports bare values).
LAYER_UNITS = {
    "client.lag_p99_us": "us", "client.overhead_p50_us": "us",
    "silicond.self_p50_us": "us", "silicond.engine_line_us": "us",
    "silicond.lines_per_batch": "count", "silicond.busy_share": "ratio", "silicond.reactor_block_p99_ms": "ms",
    "serve.request.fast_parse_ns": "ns", "serve.request.slow_parse_ns": "ns",
    "serve.cache.get_ns": "ns", "serve.cache.put_ns": "ns",
    "serve.cache.evictions": "count", "serve.cache.entries": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.engine.line_us_hit": "us", "serve.engine.line_us_miss": "us",
    "serve.engine.batch_us_p50": "us", "serve.engine.kernel_share": "ratio",
    "serve.json.reply_bytes_p50": "B", "serve.json.serialize_ns_per_byte": "ns/B",
    "serve.snapshot.restore_s": "s", "serve.snapshot.bytes": "B",
    "core.eval_us": "us", "geometry.gross_die_us": "us", "yield.eval_us": "us",
    "chiplet.eval_us": "us", "yield.mc_ms": "ms",
    "yield.batch.ns_per_lane": "ns", "cost.batch.ns_per_lane": "ns",
    "chiplet.batch.ns_per_lane": "ns",
    "exec.parallel_for_overhead_us": "us", "exec.speedup": "x",
    "trace.overhead_pct": "%", "trace.spans": "count", "trace.line_self_share": "ratio",
    "reconcile.ratio": "ratio", "reconcile.ok": "bool",
}


def print_table(workload, report):
    print(f"== {workload}: correct={report['correct']} attempted={report['attempted']} "
          f"failed={report['failed']}")
    for name, m in sorted(report["end_to_end"].items()):
        print(f"   {name:<14} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    layers = report["layers"]
    for name in ("client.overhead_p50_us", "client.lag_p99_us", "silicond.self_p50_us",
                 "silicond.lines_per_batch", "silicond.busy_share",
                 "serve.cache.hit_ratio"):
        print(f"   {name:<26} {layers.get(name, float('nan')):>12.6g}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--server-threads", type=int, default=1,
                   help="silicond --threads (fixed by BENCHMARK.json)")
    p.add_argument("--all", action="store_true", help="run every workload, print a table")
    p.add_argument("--selftest", action="store_true", help="run the benchmark's unit tests")
    args = p.parse_args()

    if args.selftest:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.call([os.path.join(out, "perfbench_tests")]))
    if not args.all and args.workload is None:
        p.error("--workload, --all or --selftest is required")

    out = build(["perfbench_load", "silicond"])
    if args.all:
        ok = True
        for w in WORKLOADS:
            report = run_workload(out, args, w, False)
            print_table(w, report)
            ok = ok and report["correct"] and report["run_exit"] == 0
        sys.exit(0 if ok else 1)

    report = run_workload(out, args, args.workload, args.trace == 1)
    print(json.dumps({"provenance": report["provenance"], "details": report.get("details", {})}))
    line = result_line(report, args.trace == 1)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
