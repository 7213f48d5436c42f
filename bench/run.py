#!/usr/bin/env python3
"""frsel benchmark: one workload, measured for a fixed time, every result checked.

    python3 bench/run.py --workload select-10 --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout. The launcher pins the BLAS/OpenMP
thread variables to 1 before numpy loads, so the only extra threads are
FitnessCache's pool. It generates the workload's inputs from --seed, times
frsel's set-up in fresh interpreters, then repeats the workload's operation
on the same inputs until --seconds are used, checking every outcome.

--trace 0 reports the end-to-end metrics. --trace 1 runs one untraced
operation, then traced ones, and reports the per-layer metrics of the traced
operations, including the tracing overhead. Every value is a median over the
operations of the run. A human-readable report goes to stderr, detailed
results to .bench_out/<workload>/, and the last line of stdout is the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 9

# Fewest extra searches (Workload.reach) an untraced run makes.
MIN_REACH_RUNS = 4

E2E_UNITS = {"run_s": "s", "setup_s": "s", "time_to_opt_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload) -> list[dict]:
    """Time import + load + standardize in SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *workload.probe_args()]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def run_operations(workload, seconds: float, trace: bool):
    """Repeat the operation until `seconds` are used; the first one is never traced.

    A new operation starts only if one more of median length still fits in
    the window, less the workload's `reach_seconds`, and a traced run keeps
    going until it has at least one traced operation. Untraced runs then
    fill the rest of the window with the workload's extra searches, at least
    MIN_REACH_RUNS of them. Returns (ops, reached): ops is a list of
    (wall_s, outcome, tracer or None), reached a list of outcomes.
    """
    from spans import Tracer, instrument
    from workloads import Outcome

    window = perf_counter()
    budget = seconds - (0.0 if trace else workload.reach_seconds)
    ops = []
    while True:
        tracer = Tracer() if trace and ops else None
        t0 = perf_counter()
        try:
            if tracer is None:
                raw = workload.operate()
                wall = perf_counter() - t0
            else:
                with instrument(tracer), tracer.span("op") as root:
                    raw = workload.operate()
                wall = root[2] - root[1]
            outcome = workload.inspect(raw)
        except Exception:
            wall = perf_counter() - t0
            outcome = Outcome(fingerprint=(), problems=[traceback.format_exc(limit=3)])
        if ops and not outcome.problems and outcome.fingerprint != ops[0][1].fingerprint:
            outcome.problems.append("result differs from the run's first operation on the same inputs")
        ops.append((wall, outcome, tracer))
        used = perf_counter() - window
        typical = statistics.median(w for w, _, _ in ops)
        need_traced = trace and all(t is None for _, _, t in ops)
        if not need_traced and used + typical > budget:
            break
    reached = []
    while workload.reach_seconds and not trace:
        try:
            reached.append(workload.reach(len(reached)))
        except Exception:
            reached.append(Outcome(fingerprint=(), problems=[traceback.format_exc(limit=3)]))
        if len(reached) >= MIN_REACH_RUNS and perf_counter() - window >= seconds:
            break
    return ops, reached


def end_to_end(ops, reached, setup) -> tuple[dict, dict]:
    walls = [w for w, _, _ in ops]
    tto = [o.time_to_opt_s for o in [o for _, o, _ in ops] + reached if o.time_to_opt_s is not None]
    # Without a certified optimum reached mid-run (the oracle certifies on
    # return, the baselines have none), the answer is available on return.
    tto = tto or walls
    values = {
        "run_s": statistics.median(walls),
        "setup_s": statistics.median(s["import_s"] + s["load_s"] for s in setup),
        "time_to_opt_s": statistics.median(tto),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"run_s": len(walls), "setup_s": len(setup), "time_to_opt_s": len(tto), "peak_rss_mb": 1}
    return values, samples


def environment(workload, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": workload.workers,
        "workload": workload.name,
        "seed": seed,
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(name: str, seed: int, seconds: float, trace: bool, make=None) -> dict:
    """One benchmark run; `make(seed, work_dir)` overrides the workload's inputs."""
    import layers
    from workloads import WORKLOADS

    work_dir = OUT_DIR / name
    workload = (make or WORKLOADS[name])(seed, work_dir / "work")
    setup = probe_setup(workload)
    ticks = _cpu_ticks()
    ops, reached = run_operations(workload, seconds, trace)
    steal = _steal_share(ticks, _cpu_ticks())
    outcomes = [o for _, o, _ in ops] + reached
    failed = sum(1 for o in outcomes if o.problems)
    report = {
        "environment": environment(workload, seed),
        "attempted": len(outcomes),
        "failed": failed,
        "fail_frac": failed / len(outcomes),
        "problems": [p for o in outcomes for p in o.problems],
        "op_wall_s": [w for w, _, _ in ops],
        "traced": [t is not None for _, _, t in ops],
        "reach_time_to_opt_s": [o.time_to_opt_s for o in reached],
        "host_steal_share": steal,
    }
    if trace:
        values, units = layers.per_layer(ops, setup)
        layers.write_spans(work_dir / "spans.csv", [t for _, _, t in ops if t is not None][-1])
        path = work_dir / "layers.json"
    else:
        values, report["samples"] = end_to_end(ops, reached, setup)
        units = E2E_UNITS
        path = work_dir / "result.json"
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    _write_json(path, report)
    return report


def _cpu_ticks() -> list[int] | None:
    """Machine-wide CPU time counters from /proc/stat, or None off Linux."""
    try:
        first = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return None
    return [int(v) for v in first.split()[1:]]


def _steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two readings.

    Wall times of this host swing with it, so the report records it.
    """
    if not before or not after or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def describe(report: dict) -> str:
    """Human-readable summary for stderr."""
    env = report["environment"]
    steal = report["host_steal_share"]
    lines = [
        f"{env['workload']} seed={env['seed']} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} pool workers={env['workers']}",
        f"operations: {report['attempted']} ({sum(report['traced'])} traced, "
        f"{len(report['reach_time_to_opt_s'])} searches stopped at the optimum), "
        f"failed {report['failed']}, fail_frac {report['fail_frac']:.3f}, "
        f"host steal share {'n/a' if steal is None else f'{steal:.3f}'}",
    ]
    samples = report.get("samples", {})
    for key, item in report["metrics"].items():
        n = f" (median of {samples[key]})" if key in samples else ""
        lines.append(f"  {key:<26} {item['value']:.6g} {item['unit']}{n}")
    lines.extend(f"  problem: {p}" for p in report["problems"])
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "frsel" / "__init__.py").is_file():
        print(f"error: no frsel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(describe(report), file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
