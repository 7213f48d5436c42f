"""Exhaustive subset enumeration, the ground truth for optimizer tests."""

from __future__ import annotations

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


def exhaustive_best(
    ds: Dataset, kcfg: KernelConfig = KernelConfig(), max_n: int = DEFAULT_MAX_N
) -> OracleResult:
    """Score all 2^N - 1 non-empty masks and return the certified optimum.

    Every mask is scored first, then one stable sort selects: highest
    fitness, then smaller popcount, then smaller mask integer, so the result
    is reproducible when distinct masks score identically. The runner-up is
    the next mask in that order. The max_n guard caps the exponential sweep,
    whose mask table takes 2^N * N bytes.
    """
    n = ds.n_features
    if n > max_n:
        raise ValueError(f"N={n} exceeds max_n={max_n}")
    ints = np.arange(1, 1 << n, dtype=np.uint32)
    masks = np.empty((ints.size, n), dtype=np.uint8)
    for j in range(n):
        masks[:, j] = (ints >> j) & 1
    scores = CriterionEngine(ds, kcfg).evaluate_many(masks)
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
