#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the simulator
sources and the benchmark binary (Release) under .bench_build/perfbench;
later calls reuse that build. Results and spans go to .bench_out/. The
binary's standard output is passed through: its last line is the JSON
result, and the exit code is non-zero when an output check failed.

--self-test runs every workload on a tiny shape: the red path of the
output check (dropped, duplicated and foreign outcomes must be flagged),
and the emitted metric names and units against BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD_DIR = Path(".bench_build") / "perfbench"
OUT_DIR = Path(".bench_out")
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("proto_excerpt", "fast_fleet", "fast_autoscale")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    if not (REPO / "src" / "core" / "engine_api.hpp").is_file():
        fail(f"simulator sources not found under {REPO / 'src'}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"'{tool}' not found on PATH")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def host_ids():
    """(git commit or 'none', digest of the simulator and benchmark sources)."""
    commit = "none"
    if (REPO / ".git").exists():
        probe = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    digest = hashlib.sha256()
    for root in (REPO / "src", BENCH_DIR):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_binary(args, capture=False):
    commit, source = host_ids()
    command = [str(BINARY), *args, "--out-dir", str(OUT_DIR),
               "--commit", commit, "--source", source]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, text=True,
                              capture_output=capture)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")


def self_test():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        red = run_binary(["--workload", workload, "--seed", "7",
                          "--shape", "tiny", "--self-test"], capture=True)
        sys.stdout.write(red.stdout)
        if red.returncode != 0:
            problems.append(f"{workload}: red-path self-test failed")
        for trace, units in expected.items():
            result = run_binary(["--workload", workload, "--seed", "7",
                                 "--shape", "tiny", "--seconds", "1",
                                 "--trace", trace], capture=True)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit "
                                f"{result.returncode}\n{result.stderr}")
                continue
            last = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != units:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(set(got.items()) ^ set(units.items()))}"
                                " differ from BENCHMARK.json")
            if not last["correct"] or last["failed"] != 0:
                problems.append(f"{workload} trace={trace}: check failed")
            print(f"self-test {workload}: trace={trace} emits "
                  f"{len(got)} metrics with units")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")
    OUT_DIR.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    result = run_binary(["--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", args.trace])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
