"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seed 1]

Runs one operation of each workload, confirms its checks accept the real
output, then feeds them perturbed copies and expects every copy to be
rejected: for each CSV one entry scaled by 1 + 1e-4 (the largest entry, the
largest entry of the last row, and the largest entry three quarters down
that is not a normalized peak of 1), and a dropped row; for each gnuplot
script a dropped plot line; for the fit report a scaled objective, a dropped
trace row and a flipped convergence flag. Exits 1 if any check accepts a
perturbed copy or rejects the real output.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads

SCALE = 1 + 1e-4


def _split(text: str):
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    return meta + [lines[len(meta)]], lines[len(meta) + 1 :]


def _join(head, rows) -> str:
    return "\n".join(head + rows) + "\n"


def _scaled(row: str, column: int) -> str:
    values = row.split(",")
    values[column] = f"{float(values[column]) * SCALE:.17g}"
    return ",".join(values)


def csv_perturbations(text: str):
    head, rows = _split(text)
    table = [[abs(float(v)) for v in row.split(",")[1:]] for row in rows]
    peak_row = max(range(len(rows)), key=lambda k: max(table[k]))
    quarter = 3 * len(rows) // 4
    for label, k, skip_peak in (
        ("largest entry", peak_row, False),
        ("largest entry of the last row", len(rows) - 1, False),
        ("largest entry three quarters down that is not a normalized peak", quarter, True),
    ):
        candidates = [c for c in range(len(table[k])) if not (skip_peak and abs(table[k][c] - 1) < 1e-12)]
        column = 1 + max(candidates, key=lambda c: table[k][c])
        changed = list(rows)
        changed[k] = _scaled(rows[k], column)
        yield f"{label} scaled by 1+1e-4", _join(head, changed)
    middle = len(rows) // 2
    yield "middle row dropped", _join(head, rows[:middle] + rows[middle + 1 :])


def gnuplot_perturbations(text: str):
    yield "plot line dropped", "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("plot")
    )


def report_perturbations(text: str):
    lines = text.splitlines()

    def edited(prefix, change):
        return "\n".join(change(line) if line.startswith(prefix) else line for line in lines) + "\n"

    def scale_value(line):
        key, value = line.split(": ")
        return f"{key}: {float(value) * SCALE:.17g}"

    yield "objective scaled by 1+1e-4", edited("objective:", scale_value)
    yield "convergence flag flipped", edited("converged:", lambda line: "converged: false")
    trace_at = lines.index("trace:") + 1
    yield "trace row dropped", "\n".join(lines[:trace_at] + lines[trace_at + 1 :]) + "\n"


def perturbations(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return csv_perturbations(text)
    if path.suffix == ".gp":
        return gnuplot_perturbations(text)
    return report_perturbations(text)


def selftest(workload: str, seed: int, workdir: Path) -> int:
    cli, plan = run.setup(workload, seed, workdir / "configs")
    real = workdir / "op0"
    error = run.run_op(cli, plan.commands, real)
    if error:
        print(f"{workload}: {error}")
        return 1
    problems = plan.check(real)
    print(f"{workload}: real output {'accepted' if not problems else 'REJECTED: ' + problems[0]}")
    missed = int(bool(problems))

    cases = [(path.name, label, text) for path in sorted(real.iterdir()) for label, text in perturbations(path)]

    copy = workdir / "perturbed"
    for name, label, text in cases:
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(real, copy)
        (copy / name).write_text(text, encoding="utf-8")
        problems = plan.check(copy)
        verdict = f"rejected ({problems[0]})" if problems else "ACCEPTED"
        missed += not problems
        print(f"  {name}: {label}: {verdict}")
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    missed = 0
    for workload in run.WORKLOAD_NAMES:
        workdir = run.OUT / f"selftest-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            missed += selftest(workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: {'every perturbation rejected' if not missed else f'{missed} missed'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
