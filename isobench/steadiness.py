#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and spread (interquartile range over median), the way the
acceptance check computes them.

Run from the repository root:

    python3 isobench/steadiness.py --runs 10 [--workloads ser_contended,...]

It reads the command, run length, workloads and bounds from BENCHMARK.json
and prints a Markdown table per workload.  A metric whose spread is not
below its bound is marked; `setup_s` is held to its bound only through its
median, so its spread is shown for the record.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(config, workload, seed, trace):
    cmd = config["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        config = json.load(f)
    names = [w["name"] for w in config["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in names:
        values = {name: [] for name in bounds}
        steal = []
        context = None
        for i in range(args.runs):
            seed = args.first_seed + i
            info, result = run_once(config, workload, seed, 0)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"{workload} seed {seed}: {result} {info.get('problems')}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            steal.append(info["host_steal_share"])
            context = info
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items())
                + f", host_steal_share={steal[-1]:.4f}, deadlock_aborts={info['deadlock_aborts']}"
                + f", timeout_aborts={info['timeout_aborts']}", file=sys.stderr)
        print(f"\n### {workload}\n")
        print(f"{args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"{config['run_seconds']} s each; host_cpus {context['host_cpus']}, "
              f"{context['clients']} clients; flush policy: {context['flush_policy']}; "
              f"host steal over the window: median {statistics.median(steal):.4f}, "
              f"max {max(steal):.4f}\n")
        print("| metric | median | q1 | q3 | spread | bound | within a third of bound |")
        print("|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            ok = "yes" if spread < bounds[name] / 3 else "**no**"
            if name == "setup_s":
                ok += " (median only)"
            print(f"| {name} | {median:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} "
                  f"| {bounds[name]} | {ok} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
