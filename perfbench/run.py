"""Benchmark of the pseudosun CLI pipelines, timed end to end and per module.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src/`, never from an installed copy. One process runs one
workload as a closed loop: one operation after another, each a pass through
the workload's CLI commands (`pseudosun.cli.main`, in-process) into a fresh
output directory, until `--seconds` have passed after a whole round. The
first operation's files go through the checks in checks.py, in a child
process; every later operation must write byte-identical files. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-module metrics with
`--trace 1`. See README.md for the workloads and what each metric means.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the box is shared, and
# op_cpu_s should not depend on how the scheduler places BLAS threads.
for _variable in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED = SRC / "pseudosun" / "configs"
OUT = BENCH / "out"

#: Fresh processes whose set-up time gives setup_s (the median is reported):
#: this many before the timed loop and as many after it, so that the probes
#: see more than one state of a shared machine.
SETUP_PROBES = 6
READY = "ready"

WORKLOAD_NAMES = ("dynamics_fig2", "herald_exact")

END_TO_END_UNITS = {"op_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def setup(workload: str, seed: int, cfg_dir: Path):
    """Import pseudosun from the checkout and write the workload's configs."""
    if not (SRC / "pseudosun" / "__init__.py").is_file():
        sys.exit(f"error: no pseudosun sources under {SRC}; run inside a source checkout")
    sys.path.insert(0, str(SRC))
    from pseudosun import cli

    if Path(cli.__file__).resolve().parent != (SRC / "pseudosun").resolve():
        sys.exit(f"error: pseudosun was imported from {cli.__file__}, not from {SRC}")
    import workloads

    cfg_dir.mkdir(parents=True, exist_ok=True)
    return cli, workloads.WORKLOADS[workload](SHIPPED, cfg_dir, seed)


def measure_setup(workload: str, seed: int, run_dir: Path, first: int) -> list[float]:
    """Time from spawning a fresh interpreter to the end of its set-up, several times."""
    times = []
    for k in range(first, first + SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(run_dir / f"probe{k}")]
        argv += ["--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != READY:
            sys.exit(f"error: set-up probe exited with {proc.returncode}")
        times.append(elapsed)
    return times


def check_in_child(workload: str, seed: int, out_dir: Path) -> list[str]:
    """Problems the workload's checks find in out_dir, run in a fresh process.

    Checking in a child keeps the checks' own arrays out of this process's
    peak resident set, which peak_rss_mb reports.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--check", str(out_dir)]
    argv += ["--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        return [f"check process exited with {done.returncode}: {done.stderr.strip()[-400:]}"]
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_op(cli, commands, out_dir: Path) -> str | None:
    """One pass through the workload's CLI commands; an error message if one fails."""
    for argv in commands:
        try:
            code = cli.main(argv + ["--out", str(out_dir)])
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            return f"{argv[0]} --config {argv[2]} raised"
        if code != 0:
            return f"{argv[0]} --config {argv[2]} exited with {code}"
    return None


def digests(out_dir: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def measure(cli, commands, check, run_dir: Path, seconds: float, tracer=None) -> dict:
    """Run whole rounds until `seconds` have passed; a traced round adds a traced op."""
    walls, cpus, traced_walls = [], [], []
    attempted = failed = 0
    reference = None  # digests of the first operation that ran, and whether it passed
    op = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True) if tracer else (False,):
            out = run_dir / f"op{op}"
            out.mkdir()
            if traced:
                tracer.begin(op)
            wall, cpu = time.perf_counter(), time.process_time()
            error = run_op(cli, commands, out)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            if traced:
                tracer.end()
                traced_walls.append(wall)
            else:
                walls.append(wall)
                cpus.append(cpu)

            attempted += 1
            problems = [error] if error else []
            if not error:
                files = digests(out)
                if reference is None:
                    problems = check(out)
                    reference = (files, not problems)
                elif files != reference[0]:
                    problems = ["files differ from the first operation's"]
                elif not reference[1]:
                    problems = ["same files as the first operation, which failed its checks"]
            if problems:
                failed += 1
                for problem in problems[:20]:
                    print(f"op {op}: {problem}", file=sys.stderr)
            shutil.rmtree(out)
            op += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "cpus": cpus,
        "traced_walls": traced_walls,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--check", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    measuring = args.setup_probe is None and args.check is None
    if measuring and not (args.seconds is not None and args.seconds > 0):
        parser.error("--seconds must be given and positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        setup(args.workload, args.seed, args.setup_probe)
        print(READY, flush=True)
        return 0
    if args.check is not None:
        _, plan = setup(args.workload, args.seed, args.check.parent / f"{args.check.name}-configs")
        print(json.dumps(list(plan.check(args.check))))
        return 0

    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        cli, plan = setup(args.workload, args.seed, run_dir / "configs")

        def check(out: Path) -> list[str]:
            return check_in_child(args.workload, args.seed, out)

        if args.trace:
            from tracing import Tracer, UNITS, layer_report

            tracer = Tracer(cli)
            result = measure(cli, plan.commands, check, run_dir, args.seconds, tracer)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            values = layer_report(tracer, result["traced_walls"], result["walls"])
            metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        else:
            setup_times = measure_setup(args.workload, args.seed, run_dir, 0)
            result = measure(cli, plan.commands, check, run_dir, args.seconds)
            setup_times += measure_setup(args.workload, args.seed, run_dir, SETUP_PROBES)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "op_s": statistics.median(result["walls"]),
                "op_cpu_s": statistics.median(result["cpus"]),
                "peak_rss_mb": rss_kib * 1024 / 1e6,
                "setup_s": statistics.median(setup_times),
            }
            metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in values}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(
        f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
        f"{result['failed']} failed",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
