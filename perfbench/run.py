#!/usr/bin/env python3
"""Source-to-counts benchmark: build, self-test and run (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles the repository's src/ in Release) into .bench_build/, runs the
benchmark's self-tests after every build, fixes the workload's OpenMP team and
qutesd worker count through the environment, and runs one measurement. The
last line of standard output is the result JSON; the line before it carries
provenance and details.

With --trace 0 the result holds the end-to-end metrics; setup_s is the median
set-up time of five cold processes (the measured one and four that only set
up). With --trace 1 it holds the per-layer metrics of a traced run.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "qbench"
SELFTEST_STAMP = BUILD_DIR / "selftest.ok"
SETUP_PROCESSES = 4
WORKERS = 2  # qutesd worker count for qutesd_mix


def nproc():
    return len(os.sched_getaffinity(0))


# OpenMP team of every workload's caller (and of each qutesd worker). At a
# team of nproc an op waits for its slowest thread, so any vCPU the host
# stalls stalls the op; README.md ("Thread budget and provenance") gives the
# measurements. static_sim and dynamic_sim still run one round at team
# nproc after the measured phase, for the digest cross-check.
TEAM = 1


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no repository sources next to {BENCH_DIR.name}/ (expected src/CMakeLists.txt)", 2)
    if shutil.which("cmake") is None:
        die("cmake not found", 2)
    jobs = str(min(4, nproc()))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("cmake configure failed")
    before = BINARY.stat().st_mtime_ns if BINARY.exists() else None
    result = subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "qbench",
                             "-j", jobs], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-20000:])
        die("build failed")
    if before != BINARY.stat().st_mtime_ns or not SELFTEST_STAMP.exists():
        selftest()


def selftest():
    """The benchmark's own logic must pass before any measurement counts."""
    SELFTEST_STAMP.unlink(missing_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS=str(nproc()), OMP_DYNAMIC="false")
    result = subprocess.run([str(BINARY), "--selftest"], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            timeout=170)
    sys.stderr.write(result.stdout)
    if result.returncode != 0:
        die("self-tests failed")
    SELFTEST_STAMP.write_text(str(BINARY.stat().st_mtime_ns))


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the benchmarked sources, standing in for the commit when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_binary(args, workload, seconds):
    env = dict(os.environ, OMP_NUM_THREADS=str(TEAM), OMP_DYNAMIC="false")
    cmd = [str(BINARY), "--workload", workload, "--team", str(TEAM),
           "--workers", str(WORKERS), *args]
    result = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, timeout=seconds * 3 + 60)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        die(f"qbench exited with {result.returncode}")
    lines = result.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        sys.stderr.write(result.stdout + result.stderr)
        die("qbench printed no result")
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def expected_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        selftest()
        return
    if args.workload not in ("frontend", "static_sim", "dynamic_sim", "qutesd_mix"):
        die(f"unknown workload {args.workload!r}", 2)

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    detail, result = run_binary([*common, "--trace", str(args.trace)], args.workload,
                                args.seconds)
    if args.trace == 0:
        # Set-up is measured in cold processes: the run's own and four that
        # set up and exit. Their median is the reported setup_s.
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES):
            _, only = run_binary([*common, "--trace", "0", "--setup-only"], args.workload,
                                 args.seconds)
            setups.append(only["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        detail["setup_s_samples"] = setups

    names = expected_metrics(args.trace == 1)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != names:
        die(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(names.items())}")
    detail.update(commit=commit(), source_digest=source_digest())
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": {n: result["metrics"][n] for n in names}}))


if __name__ == "__main__":
    main()
