"""Reference optimizers run by the memetic module's generation loop.

Three kinds are provided for head-to-head studies: a tournament GA with
elitism, a sigmoid-transfer binary PSO, and the plain binary DE. Plain BDE
is run_ma with F = 0.65 and CR = 0.55 fixed, no initial neighbour
refinement and no tabu walk. GA and BPSO are step functions of the same
generation loop as run_ma, so all kinds share its seeding, fitness cache,
run log and termination contract, and comparison tables mix them freely.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .criterion import KernelConfig
from .datasets import Dataset, check_fields
from .memetic import (
    MAConfig,
    SelectionResult,
    _drive,
    _population_start,
    _population_step,
    _Step,
    group_variance,
    repair_empty,
    run_ma,
)

# Unused here, but bench/spans.py wraps these names in this module's namespace.
from .memetic import bde_crossover, bde_mutate  # noqa: F401

BASELINE_KINDS = ("GA", "BPSO", "BDE")

# Plain BDE runs at the midpoint of the adaptive ranges.
BDE_F = 0.65
BDE_CR = 0.55

# GA: chance that a child is a uniform crossover, and per-bit flip chance.
GA_CROSSOVER = 0.85
GA_MUTATION = 0.01

# BPSO: cognitive and social weights, inertia, and the velocity clamp.
PSO_C1 = 2.0
PSO_C2 = 2.0
PSO_INERTIA = 1.0
PSO_VMAX = 4.0

# A run's final fitness counts as a success when it comes within this
# distance of the study's reference optimum.
SUCCESS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BaselineConfig:
    """Configuration shared by the three comparison optimizers."""

    kind: str = "BDE"
    np: int = 80
    g_max: int = 300
    fitness_stop: float = 0.9950
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {self.kind!r}")
        minimum = 4 if self.kind == "BDE" else 2
        if self.np < minimum:
            raise ValueError(f"np must be at least {minimum} for {self.kind}")
        if self.g_max < 0:
            raise ValueError("g_max must be non-negative")
        if np.isnan(self.fitness_stop):
            raise ValueError("fitness_stop must not be NaN")


def _ga_step(cfg: BaselineConfig, state, cache, rng):
    """One GA generation: the elite survives, tournaments breed the rest.

    Each of the np - 1 children has two parents, each the fitter (first on
    ties) of a random pair, and is their uniform crossover with probability
    GA_CROSSOVER, else a copy of the first parent, then bit-flip mutated.
    """
    pop, fits = state
    n_children = cfg.np - 1
    pairs = rng.integers(fits.size, size=(2, 2, n_children))
    a, b = np.where(fits[pairs[:, 0]] >= fits[pairs[:, 1]], pairs[:, 0], pairs[:, 1])
    crossed = rng.random(n_children) < GA_CROSSOVER
    from_b = crossed[:, None] & (rng.random((n_children, pop.shape[1])) < 0.5)
    children = np.where(from_b, pop[b], pop[a])
    children ^= (rng.random(children.shape) < GA_MUTATION).astype(np.uint8)
    repair_empty(children, rng)
    pop = np.vstack([pop[int(np.argmax(fits))][None], children])
    fits = np.asarray(cache.batch(pop))
    return (pop, fits), _population_step(pop, fits, group_variance(fits))


def _bpso_start(cfg: BaselineConfig, n_features: int, cache, rng):
    """A swarm at rest on a random population, each particle its own best."""
    (pos, fits), _ = _population_start(cfg, n_features, cache, rng)
    vel = np.zeros(pos.shape, dtype=np.float64)
    g_idx = int(np.argmax(fits))
    gbest, gbest_f = pos[g_idx].copy(), float(fits[g_idx])
    state = (pos, vel, pos.copy(), fits.copy(), gbest, gbest_f)
    return state, _Step(gbest, gbest_f, fits, group_variance(fits))


def _bpso_step(cfg: BaselineConfig, state, cache, rng):
    """One BPSO generation; the reported best is the swarm's best so far."""
    pos, vel, pbest, pbest_f, gbest, gbest_f = state
    here = pos.astype(np.float64)
    u1 = rng.random(pos.shape)
    u2 = rng.random(pos.shape)
    vel = (
        PSO_INERTIA * vel
        + PSO_C1 * u1 * (pbest - here)
        + PSO_C2 * u2 * (gbest - here)
    )
    np.clip(vel, -PSO_VMAX, PSO_VMAX, out=vel)
    transfer = 1.0 / (1.0 + np.exp(-vel))
    pos = repair_empty((rng.random(pos.shape) < transfer).astype(np.uint8), rng)
    fits = np.asarray(cache.batch(pos))
    improved = fits > pbest_f
    pbest[improved] = pos[improved]
    pbest_f[improved] = fits[improved]
    g_idx = int(np.argmax(pbest_f))
    if float(pbest_f[g_idx]) > gbest_f:
        gbest, gbest_f = pbest[g_idx].copy(), float(pbest_f[g_idx])
    state = (pos, vel, pbest, pbest_f, gbest, gbest_f)
    return state, _Step(gbest, gbest_f, fits, group_variance(fits))


_STEPS = {"GA": (_population_start, _ga_step), "BPSO": (_bpso_start, _bpso_step)}


def run_baseline(
    ds: Dataset,
    kcfg: KernelConfig,
    cfg: BaselineConfig,
    workers: int = 0,
) -> SelectionResult:
    """Run the optimizer named by cfg.kind on a standardized dataset."""
    if cfg.kind == "BDE":
        bde = MAConfig(
            np=cfg.np,
            g_max=cfg.g_max,
            f_min=BDE_F,
            f_max=BDE_F,
            cr_min=BDE_CR,
            cr_max=BDE_CR,
            init_neighbors=0,
            ts_iters=0,
            fitness_stop=cfg.fitness_stop,
            seed=cfg.seed,
        )
        return run_ma(ds, kcfg, bde, workers=workers)
    return _drive(ds, kcfg, cfg, workers, *_STEPS[cfg.kind])


@dataclass(frozen=True)
class ComparisonRow:
    """Aggregate of one optimizer's runs in a comparison study."""

    optimizer: str
    mean_time_s: float
    best_fitness: float
    mean_fitness: float
    success_rate_pct: float


def check_kinds(kinds) -> None:
    """Reject an optimizer kind that is unknown or given twice, naming it."""
    for i, kind in enumerate(kinds):
        if kind != "MA" and kind not in BASELINE_KINDS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
        if kind in kinds[:i]:
            raise ValueError(f"optimizer kind {kind!r} is repeated")


def _mean(values: list[float]) -> float:
    """Mean of a non-empty list, with the bits of statistics.fmean, which
    frsel does not import: the exactly rounded sum over the count."""
    return math.fsum(values) / len(values)


def compare(
    ds: Dataset,
    kcfg: KernelConfig,
    kinds,
    seeds,
    ma_config: MAConfig | None = None,
    baseline_config: BaselineConfig | None = None,
    reference_fitness: float | None = None,
    workers: int = 0,
) -> list[ComparisonRow]:
    """Run each optimizer across seeds and aggregate a comparison table.

    kinds may contain "MA" and any of the baseline kinds, each at most once.
    The success reference is, in order of preference: the explicit
    reference_fitness (e.g. a certified oracle optimum), else the best
    fitness any optimizer reached in this study.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("no seeds to run")
    check_kinds(kinds)
    finals: dict[str, list[float]] = {}
    times: dict[str, list[float]] = {}
    for kind in kinds:
        finals[kind] = []
        times[kind] = []
        for s in seeds:
            t0 = time.perf_counter()
            if kind == "MA":
                cfg = replace(ma_config or MAConfig(), seed=s)
                result = run_ma(ds, kcfg, cfg, workers=workers)
            else:
                cfg = replace(baseline_config or BaselineConfig(), kind=kind, seed=s)
                result = run_baseline(ds, kcfg, cfg, workers=workers)
            times[kind].append(time.perf_counter() - t0)
            finals[kind].append(result.best_fitness)
    reference = (
        reference_fitness
        if reference_fitness is not None
        else max(max(v) for v in finals.values())
    )
    rows = []
    for kind in kinds:
        values = finals[kind]
        wins = sum(1 for f in values if f >= reference - SUCCESS_TOLERANCE)
        rows.append(
            ComparisonRow(
                optimizer=kind,
                mean_time_s=_mean(times[kind]),
                best_fitness=max(values),
                mean_fitness=_mean(values),
                success_rate_pct=100.0 * wins / len(values),
            )
        )
    return rows


def compare_csv_text(rows) -> str:
    """Render comparison rows as CSV, one column per ComparisonRow field."""
    names = [f.name for f in fields(ComparisonRow)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    for row in rows:
        writer.writerow([getattr(row, name) for name in names])
    return buf.getvalue()
