"""Per-layer metrics from the spans of traced operations.

Each traced operation yields one value per metric; the run reports the
median over its traced operations. Counts repeat exactly between
operations on the same inputs. A layer the workload never enters reads 0.
"""

from __future__ import annotations

import csv
import statistics
from collections import defaultdict
from pathlib import Path

from spans import COUNT, END, NAME, PARENT, START, self_times

UNITS = {
    "setup.import_s": "s",
    "datasets.load_s": "s",
    "criterion.engine_build_s": "s",
    "criterion.calls": "count",
    "criterion.evaluate_ms": "ms",
    "criterion.busy_s": "s",
    "criterion.share": "ratio",
    "cache.lookups": "count",
    "cache.misses": "count",
    "cache.hit_rate": "ratio",
    "cache.self_s": "s",
    "pool.concurrency": "ratio",
    "tabu.calls": "count",
    "tabu.iter_ms": "ms",
    "tabu.self_s": "s",
    "de.init_s": "s",
    "de.variation_s": "s",
    "ma.generations": "count",
    "ma.evals_to_opt": "count",
    "ma.generation_to_opt": "count",
    "baselines.ga_s": "s",
    "baselines.bpso_s": "s",
    "baselines.bde_s": "s",
    "baselines.evals": "count",
    "oracle.masks_per_s": "1/s",
    "oracle.self_s": "s",
    "evaluation.knn_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def operation_metrics(spans: list[list], outcome) -> dict[str, float]:
    """Layer metrics of one traced operation."""
    selfs = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    own = defaultdict(float)
    eval_ms = []
    pooled = 0.0
    for rec, self_s in zip(spans, selfs):
        name, length = rec[NAME], rec[END] - rec[START]
        dur[name] += length
        calls[name] += 1
        work[name] += rec[COUNT]
        own[name] += self_s
        if name == "criterion.evaluate":
            eval_ms.append(length * 1000.0)
            if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "cache.batch":
                pooled += length
    lookups = work["cache.batch"] + calls["cache.call"]
    return {
        "criterion.engine_build_s": dur["criterion.build"],
        "criterion.calls": calls["criterion.evaluate"],
        "criterion.evaluate_ms": statistics.median(eval_ms) if eval_ms else 0.0,
        "criterion.busy_s": dur["criterion.evaluate"],
        "criterion.share": _ratio(dur["criterion.evaluate"], dur["op"]),
        "cache.lookups": lookups,
        "cache.misses": outcome.cache_misses,
        "cache.hit_rate": 1.0 - _ratio(outcome.cache_misses, lookups) if lookups else 0.0,
        "cache.self_s": own["cache.batch"] + own["cache.call"],
        "pool.concurrency": _ratio(pooled, dur["cache.batch"]),
        "tabu.calls": calls["tabu.walk"],
        "tabu.iter_ms": _ratio(dur["tabu.walk"] * 1000.0, work["tabu.walk"]),
        "tabu.self_s": own["tabu.walk"],
        "de.init_s": dur["de.init"],
        "de.variation_s": dur["de.mutate"] + dur["de.crossover"],
        "ma.generations": outcome.generations,
        "ma.evals_to_opt": outcome.evals_to_opt,
        "ma.generation_to_opt": outcome.generation_to_opt,
        "baselines.ga_s": dur["baselines.GA"],
        "baselines.bpso_s": dur["baselines.BPSO"],
        "baselines.bde_s": dur["baselines.BDE"],
        "baselines.evals": work["baselines.GA"] + work["baselines.BPSO"] + work["baselines.BDE"],
        "oracle.masks_per_s": _ratio(work["oracle.exhaustive"], dur["oracle.exhaustive"]),
        "oracle.self_s": own["oracle.exhaustive"],
        "evaluation.knn_s": dur["evaluation.subset"],
        "cli.write_s": dur["cli.write"],
    }


def per_layer(ops, setup) -> tuple[dict[str, float], dict[str, str]]:
    """Medians over the traced operations, plus set-up layers and tracing overhead."""
    traced = [(wall, operation_metrics(t.spans, o)) for wall, o, t in ops if t is not None]
    untraced = [wall for wall, _, t in ops if t is None]
    values = {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "datasets.load_s": statistics.median(s["load_s"] for s in setup),
    }
    for key in traced[0][1]:
        values[key] = statistics.median(m[key] for _, m in traced)
    values["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(untraced)
    return {k: values[k] for k in UNITS}, UNITS


def write_spans(path: Path, tracer) -> None:
    """Dump one operation's spans as CSV, times relative to its first span."""
    base = tracer.spans[0][START]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["name", "start_s", "end_s", "parent", "thread", "count"])
        for rec in tracer.spans:
            out.writerow([rec[0], f"{rec[1] - base:.9f}", f"{rec[2] - base:.9f}", *rec[3:]])
