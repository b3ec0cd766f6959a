#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark's bounds see it.

    python3 perfbench/spread.py --runs 10 [--workloads point_hot,explore] [--first-seed 100]

Runs perfbench/run.py once per seed and workload (--trace 0), then prints,
for every end-to-end metric, the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Raw result lines are kept in .bench_build/spread/<workload>.jsonl and
each run's stderr in .bench_build/spread/<workload>.log.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--first-seed", type=int, default=100)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "spread")
    os.makedirs(out_dir, exist_ok=True)

    ok = True
    for w in workloads:
        values = {}
        with open(os.path.join(out_dir, f"{w}.jsonl"), "w") as raw, \
                open(os.path.join(out_dir, f"{w}.log"), "w") as log:
            for i in range(args.runs):
                cmd = spec["command"] + ["--workload", w, "--seed", str(args.first_seed + i),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                log.write(f"== seed {args.first_seed + i}\n")
                log.flush()
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log, text=True)
                last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
                raw.write(last + "\n")
                raw.flush()
                result = json.loads(last)
                if proc.returncode != 0 or not result.get("correct"):
                    print(f"{w} seed {args.first_seed + i}: run failed", file=sys.stderr)
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({args.runs} runs)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [med, med, med]
            share = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            flag = "" if share <= bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
            print(f"   {name:<14} median {med:>14.6g}  iqr/median {share:7.4f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
