"""Exhaustive subset enumeration, the ground truth for optimizer tests."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .criterion import CriterionEngine, KernelConfig, mask_names, mask_to_hex
from .datasets import Dataset

DEFAULT_MAX_N = 20


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimum over every non-empty mask, plus the best losing fitness.

    runner_up_fitness is the highest fitness among masks other than
    best_mask; None only when a single candidate exists (N = 1).
    """

    best_mask: np.ndarray
    best_fitness: float
    evaluated: int
    runner_up_fitness: float | None


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, where the OS keeps
    one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def exhaustive_best(
    ds: Dataset, kcfg: KernelConfig = KernelConfig(), max_n: int = DEFAULT_MAX_N
) -> OracleResult:
    """Score all 2^N - 1 non-empty masks and return the certified optimum.

    Every mask is scored first, then one stable sort selects: highest
    fitness, then smaller popcount, then smaller mask integer, so the result
    is reproducible when distinct masks score identically. The runner-up is
    the next mask in that order. The max_n guard caps the exponential sweep,
    whose mask table takes 2^N * N bytes.

    The sweep runs on every core the process may run on (usable_cores): the
    mask table is cut into that many contiguous slices, the first scored in
    the calling thread and the others on helper threads that live only for
    the sweep. Scores do not depend on the cut, so the result does not
    depend on the core count; CPU affinity (taskset) is the control. Each
    extra core costs about 2 MB of memory: its kernel chunk buffers and
    its thread's malloc arena.
    """
    n = ds.n_features
    if n > max_n:
        raise ValueError(f"N={n} exceeds max_n={max_n}")
    ints = np.arange(1, 1 << n, dtype=np.uint32)
    masks = np.empty((ints.size, n), dtype=np.uint8)
    for j in range(n):
        masks[:, j] = (ints >> j) & 1
    engine = CriterionEngine(ds, kcfg)
    cores = usable_cores()
    with ThreadPoolExecutor(max_workers=max(1, cores - 1)) as helpers:
        scores = engine.evaluate_split(masks, cores, helpers)
    order = np.lexsort((masks.sum(axis=1, dtype=np.uint8), -scores))
    return OracleResult(
        best_mask=masks[order[0]].copy(),
        best_fitness=float(scores[order[0]]),
        evaluated=ints.size,
        runner_up_fitness=float(scores[order[1]]) if n > 1 else None,
    )


def oracle_to_dict(result: OracleResult, feature_names) -> dict:
    """JSON-ready form of an OracleResult: its fields, best_mask as hex, then
    best_features, the names of the selected columns."""
    out = {f.name: getattr(result, f.name) for f in fields(result)}
    out["best_mask"] = mask_to_hex(result.best_mask)
    out["best_features"] = mask_names(result.best_mask, feature_names)
    return out
