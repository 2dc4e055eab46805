"""Run two sets of benchmark runs of one checkout and compare them metric by metric.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--first-seed 1]
    python3 perfbench/steady.py --runs 1 --sets 1   # one run of every workload

Each set runs the benchmark command of BENCHMARK.json on every workload,
once per seed, with another seed every run (seeds count up from first-seed
through both sets), at the file's run_seconds. The second set starts after
the first has finished on all workloads. For
every workload and end-to-end metric it prints each set's median and
quartiles and the spread (quartile distance over median), then whether the
sets agree: every spread except that of setup_s within the metric's bound,
the two medians apart by at most the bound in either direction, and the
same share of failed operations. The spread of setup_s is printed but not
gated: a set-up of about 0.2 s of imports is timed inside one machine state
at a time and spreads by up to a third of its median on a shared machine;
its median is gated like every other metric's. Every run's attempted and
failed operations and metrics (value and unit) are printed as it finishes.
Raw results go to perfbench/out/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def compare(spec: dict, results: dict) -> bool:
    steady = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = {round(sum(r["failed"] for r in s) / sum(r["attempted"] for r in s), 12) for s in sets}
        print(f"  failed share per set: {sorted(shares)}")
        steady &= len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, spread = summary(values)
                medians.append(median)
                within = name == "setup_s" or spread <= bound
                steady &= within
                print(
                    f"  {name:12s} set {k + 1}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                    f"spread {spread:6.2%} (bound {bound:.0%}, a third {bound / 3:.2%})"
                    + ("" if within else "  SPREAD OVER BOUND")
                )
            if len(medians) == 2:
                change = medians[1] / medians[0] - 1
                agree = abs(change) <= bound
                steady &= agree
                print(f"  {name:12s} second vs first median: {change:+.2%}" + ("" if agree else "  DISAGREE"))
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    # Sets run one after the other over all workloads, so that the second
    # set of a workload is separated in time from its first.
    results = {workload: [] for workload in names}
    seed = args.first_seed
    for _ in range(args.sets):
        for workload in names:
            runs = []
            for _ in range(args.runs):
                result = run_once(spec, workload, seed, spec["run_seconds"])
                runs.append(result)
                metrics = ", ".join(
                    f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()
                )
                print(
                    f"{workload} seed {seed}: attempted {result['attempted']}, "
                    f"failed {result['failed']}; {metrics}",
                    flush=True,
                )
                seed += 1
            results[workload].append(runs)
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / f"steady-{stamp}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    if args.runs < 2:
        return 0
    steady = compare(spec, results)
    print(f"\nsteady: {'yes' if steady else 'no'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
