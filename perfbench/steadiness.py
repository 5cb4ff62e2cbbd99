#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py WORKLOAD [--seeds 101-110] [--seconds 20] [--trace]

Run from the root of a checkout. Prints one line per run, then for every
metric, and for the unscaled CPU-time figures in the detail line, its
median and the distance between its first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. Compare that
share with the metric's bound in BENCHMARK.json: a spread near the bound
means the host is too noisy for the bound to separate a change from noise.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=seeds, default=seeds("101-110"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    values = {}
    for seed in args.seeds:
        run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                              "--seed", str(seed), "--seconds", args.seconds,
                              "--trace", "1" if args.trace else "0"],
                             capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{run.stderr}")
        lines = run.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])
        scale = detail.get("host_speed", {}).get("scale", 0)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal={detail.get('host_steal_share', 0):.3f} "
              f"scale={scale:.4f} " +
              " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for name, value in detail.get("unscaled", {}).items():
            values.setdefault(f"(unscaled) {name}", []).append(value)
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        mid = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:44s} median {mid:.5g}  IQR/median {(q3 - q1) / mid if mid else 0:.4f}")


if __name__ == "__main__":
    main()
