"""Memetic feature-subset search.

Global exploration is a binary differential evolution whose control
parameters follow the population's fitness spread: a tight population gets a
weak mutation scale and a strong crossover rate, a scattered one the
opposite. The best individual of each generation is refined by a tabu local
search over bit flips and selected/unselected swaps, and the refined mask
replaces it when strictly better.

Determinism contract: all randomness flows through one np.random.Generator
consumed only on the sequential control path. Fitness evaluations may run on
worker threads but draw no random numbers, so results are identical for any
worker count.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .criterion import CriterionEngine, KernelConfig, mask_to_hex
from .datasets import Dataset

# Fitness assigned to the all-zeros mask: strictly below the criterion's
# lower bound of -0.5, so an empty subset can never win a comparison.
EMPTY_MASK_FITNESS = -1.0

# Guard for the variance denominator when the best fitness is near zero.
_VARIANCE_GUARD = 1e-12

# Largest tabu neighborhood scanned exactly; bigger ones are subsampled.
_TS_CANDIDATE_CAP = 500


@dataclass(frozen=True)
class MAConfig:
    """Knobs of the memetic run; defaults suit problems up to ~30 features."""

    np: int = 80
    g_max: int = 300
    f_min: float = 0.4
    f_max: float = 0.9
    cr_min: float = 0.3
    cr_max: float = 0.8
    tl: int = 20
    ts_iters: int = 200
    fitness_stop: float = 0.9950
    init_neighbors: int = 5
    elite_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.np < 4:
            raise ValueError("np must be at least 4 (mutation draws 3 donors)")
        if not 0 < self.f_min <= self.f_max:
            raise ValueError("need 0 < f_min <= f_max")
        if not 0 < self.cr_min <= self.cr_max <= 1:
            raise ValueError("need 0 < cr_min <= cr_max <= 1")
        for name in ("g_max", "tl", "ts_iters", "init_neighbors", "elite_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class GenerationRecord:
    """One generation's snapshot for the run log."""

    g: int
    best_fitness: float
    mean_fitness: float
    sigma_sq: float
    f_g: float | None
    cr_g: float | None
    best_mask: np.ndarray
    evaluations_so_far: int
    elapsed_ms: float


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Outcome of one optimizer run."""

    best_mask: np.ndarray
    best_fitness: float
    log: list[GenerationRecord]
    terminated_by: str  # "generation_limit" or "fitness_stop"
    total_evaluations: int


def _checked_masks(masks, n_features: int, ndim: int) -> np.ndarray:
    """Masks as a C-contiguous uint8 array of `ndim` dimensions.

    Rows must be n_features wide and hold only 0 and 1, as in
    criterion.as_mask; a uint8 input is checked with a single max().
    """
    arr = np.asarray(masks)
    if arr.ndim != ndim or arr.shape[-1] != n_features:
        raise ValueError(f"expected masks of {n_features} bits, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        if arr.size and arr.max() > 1:
            raise ValueError("mask entries must be 0 or 1")
    elif arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
        raise ValueError("mask entries must be 0 or 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


class FitnessCache:
    """Memoized subset fitness over one dataset.

    Keys are the raw mask bytes. `evaluations` counts distinct masks actually
    computed; cache hits do not move it. batch() deduplicates its inputs in
    first-occurrence order before (optionally parallel) computation, so the
    counter and the stored values never depend on the worker count. Masks
    that are not 0/1 vectors of the dataset's width are rejected before any
    lookup. `neighborhoods` is the tabu walk's per-mask move table, kept here
    so it lives exactly as long as the memoized values it mirrors.
    """

    def __init__(self, ds: Dataset, kcfg: KernelConfig, workers: int = 0):
        self._engine = CriterionEngine(ds, kcfg)
        self._n_features = ds.n_features
        self._table: dict[bytes, float] = {}
        self.neighborhoods: dict[bytes, tuple] = {}
        self.evaluations = 0
        self._pool = (
            ThreadPoolExecutor(max_workers=workers) if workers and workers > 1 else None
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _compute(self, mask: np.ndarray) -> float:
        if not mask.any():
            return EMPTY_MASK_FITNESS
        return self._engine.evaluate(mask).gc

    def __call__(self, mask) -> float:
        arr = _checked_masks(mask, self._n_features, ndim=1)
        key = arr.tobytes()
        hit = self._table.get(key)
        if hit is not None:
            return hit
        value = self._compute(arr)
        self._table[key] = value
        self.evaluations += 1
        return value

    def batch(self, masks) -> list[float]:
        """Fitness of each mask; `masks` is a sequence of masks or an (M, N) array."""
        if len(masks) == 0:
            return []
        arr = _checked_masks(masks, self._n_features, ndim=2)
        keys = arr.view(f"V{self._n_features}").ravel().tolist()
        table = self._table
        todo = [key for key in dict.fromkeys(keys) if key not in table]
        if todo:
            rows = [np.frombuffer(key, dtype=np.uint8) for key in todo]
            if self._pool is not None and len(rows) > 1:
                values = list(self._pool.map(self._compute, rows))
            else:
                values = [self._compute(row) for row in rows]
            table.update(zip(todo, values))
            self.evaluations += len(todo)
        return [table[key] for key in keys]


def fitness(mask, ds: Dataset, kcfg: KernelConfig = KernelConfig()) -> float:
    """Criterion value of a 0/1 mask; the empty mask gets the -1.0 sentinel."""
    arr = _checked_masks(mask, ds.n_features, ndim=1)
    if not arr.any():
        return EMPTY_MASK_FITNESS
    return CriterionEngine(ds, kcfg).evaluate(arr).gc


def group_variance(fitnesses) -> float:
    """Population spread: sum of squared deviations scaled by the best value.

    The denominator is max(|best|, 1e-12) so degenerate populations (all
    zeros, or sentinel-dominated early generations) stay finite.
    """
    f = np.asarray(fitnesses, dtype=np.float64)
    if f.size == 0:
        raise ValueError("empty fitness sequence")
    r = (f - f.mean()) / max(abs(float(f.max())), _VARIANCE_GUARD)
    return float((r * r).sum())


def adapt_params(sigma_sq: float, cfg: MAConfig) -> tuple[float, float]:
    """Generation controls (f_g, cr_g) from the current population spread."""
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be non-negative")
    shrink = 1.0 - sigma_sq / cfg.np
    f_g = cfg.f_max - (cfg.f_max - cfg.f_min) * shrink
    cr_g = cfg.cr_min + (cfg.cr_max - cfg.cr_min) * shrink
    f_g = min(max(f_g, cfg.f_min), cfg.f_max)
    cr_g = min(max(cr_g, cfg.cr_min), cfg.cr_max)
    return f_g, cr_g


def mutant_from_donors(base, d1, d2, f_g: float, rng) -> np.ndarray:
    """Flip base bits where d1 and d2 disagree, each with probability f_g."""
    base = np.asarray(base, dtype=np.uint8)
    diff = np.bitwise_xor(np.asarray(d1, np.uint8), np.asarray(d2, np.uint8))
    gate = (rng.random(base.size) < f_g).astype(np.uint8)
    return np.bitwise_xor(base, diff & gate)


def bde_mutate(pop: np.ndarray, i: int, f_g: float, rng) -> np.ndarray:
    """Mutant for slot i from three distinct donors, none equal to i."""
    idx = rng.choice(pop.shape[0] - 1, size=3, replace=False)
    idx[idx >= i] += 1
    r1, r2, r3 = (int(v) for v in idx)
    return mutant_from_donors(pop[r1], pop[r2], pop[r3], f_g, rng)


def crossover_bits(target, mutant, j_rand: int, gate) -> np.ndarray:
    """Binomial mix: gated bits come from the mutant, j_rand always does."""
    trial = np.where(gate, mutant, target).astype(np.uint8)
    trial[j_rand] = mutant[j_rand]
    return trial


def bde_crossover(target, mutant, cr_g: float, rng) -> np.ndarray:
    """Randomized binomial crossover with one forced mutant position."""
    target = np.asarray(target, dtype=np.uint8)
    j_rand = int(rng.integers(target.size))
    gate = rng.random(target.size) < cr_g
    return crossover_bits(target, np.asarray(mutant, np.uint8), j_rand, gate)


def bde_select(target, trial, fitness_fn) -> np.ndarray:
    """Greedy survivor selection; exact ties keep the trial."""
    return trial if fitness_fn(trial) >= fitness_fn(target) else target


def _neighborhood(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moves of a mask as (first, second) position arrays.

    A move toggles `first`, and `second` too unless it equals the mask
    width, the sentinel of a single-bit flip. Flips come first, in position
    order, except the flip of a last selected bit, so the walk never leaves
    the feasible space; then the (selected, unselected) swaps, selected-major.
    """
    n = mask.size
    selected = np.flatnonzero(mask)
    unselected = np.flatnonzero(mask == 0)
    flips = unselected if selected.size == 1 else np.arange(n)
    first = np.concatenate([flips, np.repeat(selected, unselected.size)])
    second = np.concatenate([np.full(flips.size, n), np.tile(unselected, selected.size)])
    return first, second


def _toggled(mask: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """(M, N) array of `mask` with each move's positions toggled."""
    n = mask.size
    rows = np.arange(first.size)
    out = np.zeros((first.size, n + 1), dtype=np.uint8)
    out[:, :n] = mask
    out[rows, first] ^= 1
    out[rows, second] ^= 1
    return out[:, :n]


def _score(fitness_fn, masks: np.ndarray) -> np.ndarray:
    if hasattr(fitness_fn, "batch"):
        return np.asarray(fitness_fn.batch(masks), dtype=np.float64)
    return np.array([fitness_fn(m) for m in masks], dtype=np.float64)


def ts_local_search(start, cfg: MAConfig, fitness_fn, rng, trace=None) -> np.ndarray:
    """Tabu walk from a non-empty mask; returns the best mask encountered.

    Each iteration scans the neighborhood (subsampled to 500 moves when
    larger), takes the best move whose touched positions are all off the
    tabu list, and marks those positions tabu for the next cfg.tl
    iterations. A tabu move is admissible anyway when it beats the best
    fitness seen so far. If every move is tabu and none aspirates, the best
    forbidden move is taken so the walk cannot stall. Accepted moves may be
    worse than the current mask; that is the escape mechanism. Ties go to
    the first move in neighborhood order.

    A mask's moves and their fitnesses are built and scored once, on its
    first visit, into a table keyed by the mask's bytes (the cache's
    `neighborhoods` when fitness_fn has one, else a table for this call);
    neighborhoods larger than 500 moves keep only their moves there.

    `trace`, if given, receives (iteration, touched_positions, fitness) per
    accepted move.
    """
    current = np.asarray(start, dtype=np.uint8).copy()
    if not current.any():
        raise ValueError("empty start mask")
    n = current.size
    best = current
    best_f = fitness_fn(current)
    table = getattr(fitness_fn, "neighborhoods", None)
    if table is None:
        table = {}
    # expiry[p]: first iteration at which position p is free again; slot n
    # is the flips' second position and is never tabu.
    expiry = np.zeros(n + 1, dtype=np.int64)
    for it in range(1, cfg.ts_iters + 1):
        key = current.tobytes()
        entry = table.get(key)
        if entry is None:
            first, second = _neighborhood(current)
            if first.size == 0:
                break
            fits = None
            if first.size <= _TS_CANDIDATE_CAP:
                fits = _score(fitness_fn, _toggled(current, first, second))
            entry = table[key] = (first, second, fits)
        first, second, fits = entry
        if fits is None:
            pick = rng.choice(first.size, size=_TS_CANDIDATE_CAP, replace=False)
            pick.sort()
            first, second = first[pick], second[pick]
            fits = _score(fitness_fn, _toggled(current, first, second))
        free = np.maximum(expiry[first], expiry[second]) <= it
        admissible = (free | (fits > best_f)).nonzero()[0]
        if admissible.size:
            idx = int(admissible[fits[admissible].argmax()])
        else:
            idx = int(fits.argmax())
        chosen_f = fits[idx]
        current = current.copy()
        move = (int(first[idx]),) if second[idx] == n else (int(first[idx]), int(second[idx]))
        for p in move:
            current[p] ^= 1
            expiry[p] = it + cfg.tl
        if chosen_f > best_f:
            best = current
            best_f = chosen_f
        if trace is not None:
            trace.append((it, move, float(chosen_f)))
    return best


def repair_empty(mask: np.ndarray, rng) -> np.ndarray:
    """Set one uniform random bit if the mask is all zeros. In place."""
    if not mask.any():
        mask[int(rng.integers(mask.size))] = 1
    return mask


def init_population(n_features: int, cfg, fitness_fn, rng) -> np.ndarray:
    """cfg.np uniform random masks, repaired, then locally improved.

    Each mask is replaced by the best of itself and cfg.init_neighbors
    random single-bit-flip neighbors; the original wins ties. A cfg without
    init_neighbors (a BaselineConfig) gets no refinement.
    """
    pop = rng.integers(0, 2, size=(cfg.np, n_features), dtype=np.uint8)
    for i in range(cfg.np):
        repair_empty(pop[i], rng)
    n_neighbors = getattr(cfg, "init_neighbors", 0)
    if n_neighbors == 0:
        return pop
    for i in range(cfg.np):
        flips = rng.integers(0, n_features, size=n_neighbors)
        candidates = [pop[i]]
        for p in flips:
            nb = pop[i].copy()
            nb[int(p)] ^= 1
            candidates.append(nb)
        if hasattr(fitness_fn, "batch"):
            fits = fitness_fn.batch(candidates)
        else:
            fits = [fitness_fn(m) for m in candidates]
        pop[i] = candidates[int(np.argmax(fits))]
    return pop


class _Step(NamedTuple):
    """An optimizer's state after one step, as _drive logs it."""

    best_mask: np.ndarray
    best_fitness: float
    fits: np.ndarray  # every individual's fitness
    sigma_sq: float
    f_g: float | None = None
    cr_g: float | None = None


def _population_step(pop, fits, sigma_sq, f_g=None, cr_g=None) -> _Step:
    """Report whose best is the population's first fittest member."""
    best = int(np.argmax(fits))
    return _Step(pop[best], float(fits[best]), fits, sigma_sq, f_g, cr_g)


def _drive(ds: Dataset, kcfg: KernelConfig, cfg, workers: int, start, step) -> SelectionResult:
    """The generation loop shared by every optimizer.

    `start(cfg, n_features, cache, rng)` and `step(cfg, state, cache, rng)`
    each return (state, _Step). _drive owns the seeded RNG, the fitness
    cache, the run log and termination: after cfg.g_max steps, or after the
    first step whose best beats cfg.fitness_stop.
    """
    rng = np.random.default_rng(cfg.seed)
    cache = FitnessCache(ds, kcfg, workers=workers)
    try:
        t0 = time.perf_counter()
        state, now = start(cfg, ds.n_features, cache, rng)
        log: list[GenerationRecord] = []
        terminated_by = "generation_limit"
        for g in range(1, cfg.g_max + 1):
            state, now = step(cfg, state, cache, rng)
            log.append(
                GenerationRecord(
                    g=g,
                    best_fitness=now.best_fitness,
                    mean_fitness=float(now.fits.mean()),
                    sigma_sq=now.sigma_sq,
                    f_g=now.f_g,
                    cr_g=now.cr_g,
                    best_mask=now.best_mask.copy(),
                    evaluations_so_far=cache.evaluations,
                    elapsed_ms=(time.perf_counter() - t0) * 1000.0,
                )
            )
            if now.best_fitness > cfg.fitness_stop:
                terminated_by = "fitness_stop"
                break
        return SelectionResult(
            best_mask=now.best_mask.copy(),
            best_fitness=now.best_fitness,
            log=log,
            terminated_by=terminated_by,
            total_evaluations=cache.evaluations,
        )
    finally:
        cache.close()


# The steps call init_population, ts_local_search, bde_mutate and
# bde_crossover as module globals, which bench/spans.py replaces to trace them.
def _population_start(cfg, n_features: int, cache, rng):
    """State (pop, fits) from init_population, and its report."""
    pop = init_population(n_features, cfg, cache, rng)
    fits = np.asarray(cache.batch(pop))
    return (pop, fits), _population_step(pop, fits, group_variance(fits))


def _ma_step(cfg: MAConfig, state, cache, rng):
    """One DE generation, then tabu refinement of the elites.

    sigma_sq is the spread of the population entering the generation, the
    one that sets f_g and cr_g.
    """
    pop, fits = state
    sigma_sq = group_variance(fits)
    f_g, cr_g = adapt_params(sigma_sq, cfg)
    trials = np.empty_like(pop)
    for i in range(cfg.np):
        mutant = bde_mutate(pop, i, f_g, rng)
        trials[i] = bde_crossover(pop[i], mutant, cr_g, rng)
    trial_fits = np.asarray(cache.batch(trials))
    keep = trial_fits >= fits
    pop = np.where(keep[:, None], trials, pop).astype(np.uint8)
    fits = np.where(keep, trial_fits, fits)
    if cfg.elite_count > 0 and cfg.ts_iters > 0:
        for idx in np.argsort(-fits, kind="stable")[: cfg.elite_count]:
            refined = ts_local_search(pop[idx], cfg, cache, rng)
            refined_f = cache(refined)
            if refined_f > fits[idx]:
                pop[idx] = refined
                fits[idx] = refined_f
    return (pop, fits), _population_step(pop, fits, sigma_sq, f_g, cr_g)


def run_ma(
    ds: Dataset,
    kcfg: KernelConfig,
    cfg: MAConfig,
    workers: int = 0,
) -> SelectionResult:
    """Full memetic run on an already standardized dataset."""
    return _drive(ds, kcfg, cfg, workers, _population_start, _ma_step)


def runlog_record_dict(record: GenerationRecord, include_timing: bool = True) -> dict:
    """JSON-ready dict for one generation record."""
    out = {
        "g": record.g,
        "best_fitness": record.best_fitness,
        "mean_fitness": record.mean_fitness,
        "sigma_sq": record.sigma_sq,
        "f_g": record.f_g,
        "cr_g": record.cr_g,
        "best_mask": mask_to_hex(record.best_mask),
        "evaluations_so_far": record.evaluations_so_far,
    }
    if include_timing:
        out["elapsed_ms"] = record.elapsed_ms
    return out


def runlog_lines(log, include_timing: bool = True) -> list[str]:
    """One JSON object per generation, ready for a .jsonl file."""
    return [json.dumps(runlog_record_dict(r, include_timing)) for r in log]
