"""Memetic feature-subset search.

Global exploration is a binary differential evolution whose control
parameters follow the population's fitness spread: a tight population gets a
weak mutation scale and a strong crossover rate, a scattered one the
opposite. A generation is built from whole-population array operations,
one random draw per quantity: donor keys, mutation gate, forced crossover
positions and crossover gate are each drawn once, shaped (np, ...). The best
individual of each generation is refined by a tabu local search over bit
flips and selected/unselected swaps, and the refined mask replaces it when
strictly better.

Determinism contract: all randomness flows through one np.random.Generator
consumed only on the sequential control path. Fitness evaluations may run on
worker threads but draw no random numbers, so results are identical for any
worker count.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .criterion import CriterionEngine, KernelConfig, as_mask, mask_to_hex
from .datasets import Dataset, check_fields

# Fitness assigned to the all-zeros mask: strictly below the criterion's
# lower bound of -0.5, so an empty subset can never win a comparison.
EMPTY_MASK_FITNESS = -1.0

# Guard for the variance denominator when the best fitness is near zero.
_VARIANCE_GUARD = 1e-12

# Largest tabu neighborhood scored whole and stored; bigger ones are sampled.
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
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.np < 4:
            raise ValueError("np must be at least 4 (mutation draws 3 donors)")
        if not 0 < self.f_min <= self.f_max <= 1:
            raise ValueError("need 0 < f_min <= f_max <= 1")
        if not 0 < self.cr_min <= self.cr_max <= 1:
            raise ValueError("need 0 < cr_min <= cr_max <= 1")
        for name in ("g_max", "tl", "ts_iters", "init_neighbors"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if np.isnan(self.fitness_stop):
            raise ValueError("fitness_stop must not be NaN")


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


class FitnessCache:
    """Memoized subset fitness over one dataset.

    Keys are the raw mask bytes. `evaluations` counts distinct masks actually
    computed; cache hits do not move it. batch() deduplicates its inputs in
    first-occurrence order, gives the empty mask EMPTY_MASK_FITNESS and
    scores the other new masks with one evaluate_many call, or with a pool
    one call per contiguous slice. Per-row scores do not depend on the
    stack, so the counter and the stored values never depend on the worker
    count. Masks that are not 0/1 vectors of the dataset's width are
    rejected before any lookup. `neighborhoods` is the tabu walk's per-mask
    move table, kept here so it lives exactly as long as the memoized values
    it mirrors; ts_local_search describes its entries.
    """

    def __init__(self, ds: Dataset, kcfg: KernelConfig, workers: int = 0):
        self._engine = CriterionEngine(ds, kcfg)
        self._n_features = ds.n_features
        self._table: dict[bytes, float] = {}
        self.neighborhoods: dict[bytes, list] = {}
        self.evaluations = 0
        self._workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _score(self, stack: np.ndarray) -> np.ndarray:
        """gc of a stack of non-empty masks, at most one slice per worker."""
        if self._pool is None:
            return self._engine.evaluate_many(stack)
        slices = np.array_split(stack, min(len(stack), self._workers))
        return np.concatenate(list(self._pool.map(self._engine.evaluate_many, slices)))

    def __call__(self, mask) -> float:
        return self.batch(as_mask(mask, self._n_features)[None])[0]

    def batch(self, masks) -> list[float]:
        """Fitness of each mask; `masks` is a sequence of masks or an (M, N) array."""
        if len(masks) == 0:
            return []
        arr = as_mask(masks, self._n_features, ndim=2)
        keys = arr.view(f"V{self._n_features}").ravel().tolist()
        table = self._table
        todo = [key for key in dict.fromkeys(keys) if key not in table]
        if todo:
            stack = np.frombuffer(b"".join(todo), dtype=np.uint8).reshape(len(todo), -1)
            live = stack.any(axis=1)
            values = np.full(len(todo), EMPTY_MASK_FITNESS)
            if live.any():
                values[live] = self._score(stack[live])
            table.update(zip(todo, values.tolist()))
            self.evaluations += len(todo)
        return [table[key] for key in keys]


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


def bde_mutate(pop: np.ndarray, f_g: float, rng) -> np.ndarray:
    """One mutant per row: a base with bits flipped where two donors disagree.

    Row i takes the three smallest of np - 1 random keys, one per other row,
    as base, first and second donor in ascending key order (three argmin
    passes, each masking the key it took); each differing donor bit is
    applied with probability f_g. Fewer than 4 rows raise ValueError.
    """
    n_pop = pop.shape[0]
    if n_pop < 4:
        raise ValueError(f"bde_mutate needs at least 4 rows, got {n_pop}")
    keys = rng.random((n_pop, n_pop - 1))
    rows = np.arange(n_pop)
    idx = np.empty((3, n_pop), dtype=np.intp)
    for role in idx:
        role[:] = keys.argmin(axis=1)
        keys[rows, role] = np.inf
    idx += idx >= rows
    base, d1, d2 = pop[idx]
    gate = rng.random(pop.shape) < f_g
    return base ^ ((d1 ^ d2) & gate)


def bde_crossover(pop: np.ndarray, mutants: np.ndarray, cr_g: float, rng) -> np.ndarray:
    """Binomial crossover per row, with one forced mutant position each."""
    n_pop, n = pop.shape
    j_rand = rng.integers(n, size=n_pop)
    take = rng.random((n_pop, n)) < cr_g
    take[np.arange(n_pop), j_rand] = True
    return np.where(take, mutants, pop)


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


def _ordered_moves(cache, mask: np.ndarray, first: np.ndarray, second: np.ndarray) -> list:
    """Scored moves of `mask` as (fitness, first, second), fittest first.

    Ties keep neighborhood order (a stable sort on -fitness), so the first
    move in this list that passes a test is the fittest one that does, first
    in neighborhood order on a tie.
    """
    fits = np.asarray(cache.batch(_toggled(mask, first, second)))
    if np.isnan(fits).any():
        raise ValueError(f"NaN fitness in the neighborhood of mask {mask_to_hex(mask)}")
    order = np.argsort(-fits, kind="stable")
    return list(zip(fits[order].tolist(), first[order].tolist(), second[order].tolist()))


def ts_local_search(start, cfg: MAConfig, cache, rng, trace=None) -> np.ndarray:
    """Tabu walk from a non-empty 0/1 mask; returns the best mask encountered.

    Each iteration reads the current mask's moves in descending fitness,
    ties in neighborhood order, and takes the first move that beats the
    best fitness seen so far (aspiration), else the first whose touched
    positions are all off the tabu list, else the first move, so the walk
    cannot stall. While every position is tabu no move can pass the second
    test, so the list is not scanned. The taken move's positions are tabu
    for the next cfg.tl iterations. Accepted moves may be worse than the
    current mask; that is the escape mechanism.

    The current mask is a bytearray whose bytes key cache.neighborhoods. A
    neighborhood of at most 500 moves is scored once, on the mask's first
    visit, and stored there as a list of (fitness, first, second) triples in
    that order. A larger one is rebuilt on every visit and a sample of 500
    of its moves is scored. A NaN fitness in a neighborhood raises
    ValueError naming the mask.

    `trace`, if given, receives (iteration, touched_positions, fitness) per
    accepted move.
    """
    start = as_mask(start)
    if not start.any():
        raise ValueError("empty start mask")
    current = bytearray(start)
    n = len(current)
    best = current.copy()
    best_f = cache(start)
    table = cache.neighborhoods
    tl = cfg.tl
    # expiry[p]: first iteration at which position p is free again; slot n
    # is the flips' second position and is never tabu. No position is free
    # before iteration free_from, a lower bound on min(expiry[:n]).
    expiry = [0] * (n + 1)
    free_from = 0
    for it in range(1, cfg.ts_iters + 1):
        key = bytes(current)
        moves = table.get(key)
        if moves is None:
            mask = np.frombuffer(key, dtype=np.uint8)
            first, second = _neighborhood(mask)
            if first.size == 0:
                break
            if first.size > _TS_CANDIDATE_CAP:
                pick = rng.choice(first.size, size=_TS_CANDIDATE_CAP, replace=False)
                pick.sort()
                moves = _ordered_moves(cache, mask, first[pick], second[pick])
            else:
                moves = table[key] = _ordered_moves(cache, mask, first, second)
        chosen_f, a, b = moves[0]
        if not chosen_f > best_f:
            if free_from <= it:
                free_from = min(expiry[:n])
            if free_from <= it:
                for chosen_f, a, b in moves:
                    if expiry[a] <= it and expiry[b] <= it:
                        break
                else:
                    chosen_f, a, b = moves[0]
        move = (a,) if b == n else (a, b)
        for p in move:
            current[p] ^= 1
            expiry[p] = it + tl
        if chosen_f > best_f:
            best = current.copy()
            best_f = chosen_f
        if trace is not None:
            trace.append((it, move, chosen_f))
    return np.frombuffer(best, dtype=np.uint8)


def repair_empty(masks: np.ndarray, rng) -> np.ndarray:
    """Set one uniform random bit in each all-zero row of an (M, N) stack. In place."""
    empty = np.flatnonzero(~masks.any(axis=1))
    if empty.size:
        masks[empty, rng.integers(masks.shape[1], size=empty.size)] = 1
    return masks


def init_population(n_features: int, cfg, cache, rng) -> np.ndarray:
    """cfg.np uniform random masks, repaired, then locally improved.

    Each mask is replaced by the best of itself and cfg.init_neighbors
    random single-bit-flip neighbors; the original wins ties. All
    candidates are scored in one batch. A cfg without init_neighbors (a
    BaselineConfig) gets no refinement.
    """
    pop = repair_empty(rng.integers(0, 2, size=(cfg.np, n_features), dtype=np.uint8), rng)
    n_neighbors = getattr(cfg, "init_neighbors", 0)
    if n_neighbors == 0:
        return pop
    flips = rng.integers(0, n_features, size=(cfg.np, n_neighbors))
    candidates = np.repeat(pop[:, None, :], n_neighbors + 1, axis=1)
    rows = np.arange(cfg.np)[:, None]
    candidates[rows, np.arange(1, n_neighbors + 1), flips] ^= 1
    fits = np.asarray(cache.batch(candidates.reshape(-1, n_features)))
    return candidates[rows[:, 0], fits.reshape(cfg.np, -1).argmax(axis=1)]


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


# _population_start calls init_population, and _ma_step calls bde_mutate,
# bde_crossover and ts_local_search, as module globals: bench/spans.py
# replaces those names to trace them.
def _population_start(cfg, n_features: int, cache, rng):
    """State (pop, fits) from init_population, and its report."""
    pop = init_population(n_features, cfg, cache, rng)
    fits = np.asarray(cache.batch(pop))
    return (pop, fits), _population_step(pop, fits, group_variance(fits))


def _ma_step(cfg: MAConfig, state, cache, rng):
    """One DE generation, then tabu refinement of the first fittest row.

    sigma_sq is the spread of the population entering the generation, the
    one that sets f_g and cr_g.
    """
    pop, fits = state
    sigma_sq = group_variance(fits)
    f_g, cr_g = adapt_params(sigma_sq, cfg)
    trials = bde_crossover(pop, bde_mutate(pop, f_g, rng), cr_g, rng)
    trial_fits = np.asarray(cache.batch(trials))
    keep = trial_fits >= fits
    pop = np.where(keep[:, None], trials, pop)
    fits = np.where(keep, trial_fits, fits)
    if cfg.ts_iters > 0:
        idx = int(np.argmax(fits))
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
    """JSON-ready dict for one generation record: its fields, best_mask as hex."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    out["best_mask"] = mask_to_hex(record.best_mask)
    if not include_timing:
        del out["elapsed_ms"]
    return out


def runlog_lines(log, include_timing: bool = True) -> list[str]:
    """One JSON object per generation, ready for a .jsonl file."""
    return [json.dumps(runlog_record_dict(r, include_timing)) for r in log]
