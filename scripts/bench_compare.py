#!/usr/bin/env python3
"""Compare perfbench results of a parent commit and this checkout, in pairs.

    scripts/bench_compare.py PARENT_REF --workload W --pairs N --seed S

Builds PARENT_REF from `git archive` in a scratch directory, then runs
perfbench/run.py on the parent and on this checkout as it is on disk, in N
pairs per workload; every run lasts BENCHMARK.json's run_seconds. Pair i
uses seed S + i, and the side that runs first
alternates (the parent on even i). Every run is listed with its `attempted`
count, the percentile its tail metric read (`detail.tail.percentile`) and
its digest. For each end-to-end metric of BENCHMARK.json the summary gives
each side's median and quartiles, the parent's interquartile range, in how
many pairs the change was better (ties count for neither side) and a
verdict against the metric's bound:

  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  either side's spread (IQR over median) is wider than the
              bound, unless every run of the change beats every run of the
              parent;
  gain        the change won at least nine tenths of at least ten pairs
              and its median beats the parent's by more than the parent's
              IQR;
  too few pairs
              the same, but over fewer than ten pairs: not enough to claim
              a gain;
  within      none of the above.

Under the metric table, each side's median of every `detail.family_ms_per_op`
class (qutesd_mix's hit/miss/bind/trace, static_sim's families) shows which
request class moved. These are CPU ms as measured, not scaled by host speed
as the end-to-end metrics are, so each side's median `detail.host_speed.scale`
heads the table: a host that ran faster for one side moves all its classes.

It also checks that both sides print the same `digest` (and, where present,
`digest_other_team` and `known_defects`) on every seed. With --out, every
run's result and detail lines are appended to a JSON-lines file.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("frontend", "static_sim", "dynamic_sim", "qutesd_mix")
CHECKED_DETAILS = ("digest", "digest_other_team", "known_defects")


def die(message):
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(1)


def export_parent(ref, scratch):
    """`git archive` of `ref` into scratch/<sha>; reused if already there."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", ref + "^{commit}"],
                         stdout=subprocess.PIPE, text=True)
    if sha.returncode != 0:
        die(f"unknown commit {ref!r}")
    target = scratch / sha.stdout.strip()[:12]
    if not (target / "perfbench" / "run.py").is_file():
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha.stdout.strip()],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            die(f"git archive of {ref} failed")
    return target


def build(checkout):
    """perfbench builds itself and runs its self-tests on first use."""
    result = subprocess.run([sys.executable, "perfbench/run.py", "--selftest"], cwd=checkout,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr[-4000:])
        die(f"perfbench build or self-test failed in {checkout}")


def run_once(checkout, workload, seed, seconds):
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                            cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        sys.stderr.write(result.stderr[-4000:])
        die(f"perfbench run failed in {checkout} ({workload}, seed {seed})")
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def comparable(value):
    """What must repeat across commits: digest_other_team also carries the
    time its round took, so only its digest is compared."""
    if isinstance(value, dict) and "digest" in value:
        return value["digest"]
    return value


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


MIN_PAIRS_FOR_GAIN = 10


def verdict(spec, parent, change):
    better = (lambda a, b: a > b) if spec["better"] == "higher" else (lambda a, b: a < b)
    sign = 1 if spec["better"] == "higher" else -1
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    bound = spec["bound"]
    if pmed != 0 and sign * (cmed - pmed) / abs(pmed) < -bound:
        return "regression", wins
    all_better = all(better(c, p) for c in change for p in parent)
    spread = max((p3 - p1) / abs(pmed) if pmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    if spread > bound and not all_better:
        return "unresolved", wins
    if wins >= 0.9 * len(parent) and sign * (cmed - pmed) > (p3 - p1):
        return ("gain" if len(parent) >= MIN_PAIRS_FOR_GAIN else "too few pairs"), wins
    return "within", wins


def family_table(parent_details, change_details):
    """One line per detail.family_ms_per_op class: each side's median over
    its runs, and the change's difference from the parent."""
    def medians(details):
        per_class = {}
        for detail in details:
            for name, ms in detail.get("family_ms_per_op", {}).items():
                per_class.setdefault(name, []).append(ms)
        return {name: statistics.median(values) for name, values in per_class.items()}

    def show(ms):
        return "-" if ms is None else f"{ms:.4g}"

    def scale(details):
        scales = [d["host_speed"]["scale"] for d in details if "host_speed" in d]
        return statistics.median(scales) if scales else None

    parent, change = medians(parent_details), medians(change_details)
    lines = []
    if parent or change:
        lines.append(f"  host speed scale, median: parent {show(scale(parent_details))}"
                     f"  change {show(scale(change_details))}")
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name), change.get(name)
        delta = f"{(c - p) / p * 100:+.1f}%" if p and c is not None else "n/a"
        lines.append(f"  {name:14s} parent {show(p)} ms/op  change {show(c)} ms/op  {delta}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REF")
    parser.add_argument("--workload", action="append", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path,
                        default=Path(tempfile.gettempdir()) / "qutes-bench-compare",
                        help="where the parent is exported and built")
    parser.add_argument("--out", type=Path, help="append every run to this JSON-lines file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": export_parent(args.parent, args.scratch), "change": ROOT}
    for checkout in sides.values():
        build(checkout)

    verdicts = []
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        print(f"== {workload}: {args.pairs} pairs of {seconds:g} s, seeds "
              f"{args.seed}-{args.seed + args.pairs - 1}")
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                detail, result = run_once(sides[side], workload, seed, seconds)
                runs[side].append((detail, result))
                tail = detail.get("tail", {})
                print(f"  seed {seed} {side:6s} attempted {result['attempted']:6d} "
                      f"failed {result['failed']} tail p{tail.get('percentile')} "
                      f"digest {detail.get('digest')} "
                      + " ".join(f"{name}={m['value']:.6g}"
                                 for name, m in result["metrics"].items()), flush=True)
                if args.out:
                    with args.out.open("a") as out:
                        out.write(json.dumps({"workload": workload, "seed": seed, "side": side,
                                              "detail": detail, "result": result}) + "\n")
            for key in CHECKED_DETAILS:
                p = comparable(runs["parent"][-1][0].get(key))
                c = comparable(runs["change"][-1][0].get(key))
                if p != c:
                    verdicts.append(f"{workload} seed {seed}: {key} differs ({p} vs {c})")
                    print(f"  seed {seed}: {key} DIFFERS: parent {p}, change {c}")

        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for _, r in runs["parent"]]
            change = [r["metrics"][name]["value"] for _, r in runs["change"]]
            p1, pmed, p3 = quartiles(parent)
            c1, cmed, c3 = quartiles(change)
            outcome, wins = verdict(metric, parent, change)
            delta = (cmed - pmed) / abs(pmed) * 100 if pmed else 0.0
            print(f"  {name:14s} parent {pmed:.6g} [{p1:.6g}, {p3:.6g}]  change {cmed:.6g} "
                  f"[{c1:.6g}, {c3:.6g}]  {delta:+.1f}%  parent IQR {p3 - p1:.4g}  "
                  f"better in {wins} of {args.pairs}  bound {metric['bound']}  {outcome}")
            if outcome in ("regression", "unresolved"):
                verdicts.append(f"{workload} {name}: {outcome}")
        families = family_table([d for d, _ in runs["parent"]], [d for d, _ in runs["change"]])
        if families:
            print("  family ms per op, median:")
            print("\n".join(families))
    print("verdict: " + ("; ".join(verdicts) if verdicts else "no metric worse than its bound"))
    sys.exit(1 if any("regression" in v or "differs" in v for v in verdicts) else 0)


if __name__ == "__main__":
    main()
