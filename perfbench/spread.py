#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads fast_fleet,proto_excerpt \
        --seeds 1-10 --seconds 30 [--trace 0|1] [--json summary.json]

Run from the root of a checkout. For every workload it runs
perfbench/run.py once per seed and prints, per metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median. Same-seed fingerprints of
outcomes and counters are listed so two invocations can be compared.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args()

    summary = {}
    failed = False
    for workload in args.workloads.split(","):
        values = {}
        fingerprints = {}
        for seed in parse_seeds(args.seeds):
            run = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n"
                      f"{run.stderr}", file=sys.stderr)
                failed = True
                continue
            result = json.loads(lines[-1])
            failed |= not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines:
                if line.startswith("# perfbench "):
                    fingerprints[seed] = line.split("fingerprint=")[-1]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == "0"), flush=True)
        rows = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4)
                         if len(series) > 1 else (median, median, median))
            spread = (q3 - q1) / abs(median) if median else 0.0
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread, "values": series}
            print(f"  {workload:15s} {name:32s} median={median:<14.6g} "
                  f"q1={q1:<14.6g} q3={q3:<14.6g} spread={spread:.4f}")
        print(f"  {workload} fingerprints: {fingerprints}")
        summary[workload] = {"metrics": rows, "fingerprints": fingerprints}
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
