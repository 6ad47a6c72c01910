#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise the spread.

    python3 perfbench/repeat.py --workload serve-10k --seeds 1-10 [--seconds 10] [--trace 0]
        [--json out.json]

For each end-to-end metric this prints the values, their median, the
first and third quartiles (Python's statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, which must stay under a third of the
metric's bound in BENCHMARK.json. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", help="append the summary to this JSON file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}

    values = {name: [] for name in bounds}
    walls = []
    for seed in seeds(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        started = time.time()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.time() - started)
        if done.returncode != 0:
            sys.exit(f"seed {seed} failed ({done.returncode}):\n{done.stdout}\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed} reported failures:\n{done.stdout}")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, "
              + ", ".join(f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
               "run_wall_s_max": round(max(walls), 1), "metrics": {}}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        verdict = "" if bound is None else (
            " ok" if spread < bound / 3 else (" within bound" if spread <= bound else " OVER BOUND"))
        print(f"{name:<16} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bound}{verdict}")
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": round(spread, 4), "values": vals}
    if args.json:
        existing = []
        if os.path.exists(args.json):
            with open(args.json) as f:
                existing = json.load(f)
        existing.append(summary)
        with open(args.json, "w") as f:
            json.dump(existing, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
