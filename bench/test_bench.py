"""Self-checks of the benchmark itself, on shrunken inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from frsel import baselines, cli, memetic, oracle  # noqa: E402
from frsel.datasets import SynthSpec  # noqa: E402
from workloads import BaselinesWide, Oracle12, Select10  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "select-10": partial(
        Select10,
        spec=SynthSpec(n_noise=2, samples_per_class=30),
        extra_args=["--ma.np=8", "--ma.g_max=3", "--ma.ts_iters=5", "--ma.fitness_stop=1.5"],
    ),
    "oracle-12": partial(Oracle12, spec=SynthSpec(n_noise=3, samples_per_class=30)),
    "baselines-wide": partial(BaselinesWide, per_class=20, n_noise=4),
}


@pytest.fixture(autouse=True)
def _scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _measure(name, trace):
    return run.measure(name, seed=3, seconds=0.01, trace=trace, make=TINY[name])


def test_declared_workloads_are_the_runnable_ones():
    from workloads import WORKLOADS

    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(name, trace):
    report = _measure(name, trace)
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in report["metrics"].items()}
    assert printed == declared
    assert report["failed"] == 0, report["problems"]
    assert all(isinstance(v["value"], (int, float)) for v in report["metrics"].values())


def _nudged(value):
    return float(np.nextafter(value, 2.0))


def _corrupt_oracle(monkeypatch):
    real = oracle.exhaustive_best

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, best_fitness=_nudged(result.best_fitness))

    monkeypatch.setattr(oracle, "exhaustive_best", corrupted)


def _corrupt_select(monkeypatch):
    real = memetic.run_ma

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, best_fitness=_nudged(result.best_fitness))

    monkeypatch.setattr(cli, "run_ma", corrupted)
    monkeypatch.setattr(memetic, "run_ma", corrupted)


def _corrupt_baselines(monkeypatch):
    real = baselines.run_baseline

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        mask = result.best_mask.copy()
        mask[0] ^= 1
        mask[1] = 1
        return dataclasses.replace(result, best_mask=mask)

    monkeypatch.setattr(baselines, "run_baseline", corrupted)


@pytest.mark.parametrize(
    "name,corrupt",
    [("oracle-12", _corrupt_oracle), ("select-10", _corrupt_select), ("baselines-wide", _corrupt_baselines)],
)
def test_corrupted_result_raises_fail_frac(monkeypatch, name, corrupt):
    corrupt(monkeypatch)
    report = _measure(name, trace=False)
    assert report["fail_frac"] == 1.0
    assert report["failed"] == report["attempted"] >= 1


def test_result_that_changes_between_repeats_fails(monkeypatch):
    real = oracle.exhaustive_best
    calls = []

    def second_call_differs(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:
            result = dataclasses.replace(result, runner_up_fitness=result.runner_up_fitness - 1e-3)
        return result

    monkeypatch.setattr(oracle, "exhaustive_best", second_call_differs)
    report = _measure("oracle-12", trace=True)
    assert report["attempted"] == 2
    assert report["failed"] == 1
    assert any("differs from the run's first" in p for p in report["problems"])


def test_traced_select_reproduces_the_layer_split():
    m = {k: v["value"] for k, v in _measure("select-10", trace=True)["metrics"].items()}
    assert m["tabu.calls"] == 3
    assert m["ma.generations"] == 3
    assert m["cache.lookups"] > m["cache.misses"] > 0
    assert m["tabu.self_s"] > 0 and m["criterion.busy_s"] > 0
    assert m["cli.write_s"] > 0 and m["evaluation.knn_s"] > 0


def test_self_time_subtracts_union_of_children_across_threads():
    tracer = spans.Tracer()
    gate = threading.Barrier(2)

    def child(_):
        with tracer.span("child"):
            gate.wait(timeout=5)

    with tracer.span("parent"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(child, range(2)))
    parent, *children = tracer.spans
    assert [c[spans.PARENT] for c in children] == [0, 0]
    assert len({c[spans.THREAD] for c in children}) == 2
    own = spans.self_times(tracer.spans)[0]
    lo = min(c[spans.START] for c in children)
    hi = max(c[spans.END] for c in children)
    assert own == pytest.approx(parent[spans.END] - parent[spans.START] - (hi - lo))


def test_instrument_restores_originals():
    from frsel import criterion

    before = (criterion.CriterionEngine.evaluate, memetic.ts_local_search, cli.atomic_write_text)
    with spans.instrument(spans.Tracer()):
        assert memetic.ts_local_search is not before[1]
    assert (criterion.CriterionEngine.evaluate, memetic.ts_local_search, cli.atomic_write_text) == before


def test_command_prints_declared_metrics_last():
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "baselines-wide",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in DECLARED["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*DECLARED["command"], "--workload", "select-10", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
