from dataclasses import fields

import numpy as np
import pytest

from conftest import make_dataset, standardize
from frsel import (
    KernelConfig,
    MAConfig,
    SynthSpec,
    criterion,
    exhaustive_best,
    gc,
    run_ma,
    synth_clusters,
)
from frsel.criterion import CriterionEngine
from frsel.datasets import informative_indices
from frsel.memetic import FitnessCache
from frsel.oracle import OracleResult, oracle_to_dict
from reference import reference_exhaustive_best

KCFG = KernelConfig()


class TestExhaustiveBest:
    def test_counts_every_nonempty_mask(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.normal(size=(10, 3)), [0] * 5 + [1] * 5)
        result = exhaustive_best(ds, KCFG)
        assert result.evaluated == 7

    def test_single_feature(self):
        ds = make_dataset([[0.0], [1.0]], [0, 1])
        result = exhaustive_best(ds, KCFG)
        assert result.best_mask.tolist() == [1]
        assert result.evaluated == 1
        assert result.runner_up_fitness is None

    def test_duplicate_columns_tie_break(self):
        # both columns identical: every mask scores the same, so the
        # smallest popcount / smallest integer mask must win
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                          [1, 1, -1, -1])
        result = exhaustive_best(ds, KCFG)
        assert result.best_mask.tolist() == [1, 0]
        assert result.runner_up_fitness == result.best_fitness

    def test_fewer_bits_beat_smaller_integer(self):
        # Unnormalized width 0.1: columns 0 and 1 saturate the criterion at
        # 1.0 only together, column 2 alone, so masks 3 (two bits) and 4
        # (one bit) tie at the top and the one-bit mask must win.
        ds = make_dataset([[0.0, 0.0, 0.0], [1.0, 1.0, 2.0]], [0, 1])
        kcfg = KernelConfig(delta=0.1, per_feature_normalization=False, n_k=1)
        result = exhaustive_best(ds, kcfg)
        assert result.best_mask.tolist() == [0, 0, 1]
        assert result.best_fitness == result.runner_up_fitness == 1.0
        assert reference_exhaustive_best(ds, kcfg)[0].tolist() == [0, 0, 1]
        assert FitnessCache(ds, kcfg)([1, 0, 0]) < 1.0

    def test_runner_up_below_unique_best(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.normal(size=(12, 4)), [0] * 6 + [1] * 6)
        result = exhaustive_best(ds, KCFG)
        assert result.runner_up_fitness <= result.best_fitness
        assert result.best_fitness == FitnessCache(ds, KCFG)(result.best_mask)

    def test_width_guard(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng.normal(size=(4, 3)), [0, 0, 1, 1])
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_best(ds, KCFG, max_n=2)

    def test_benchmark_recovers_informative_columns(self, benchmark_ds, benchmark_oracle):
        expect = np.zeros(benchmark_ds.n_features, dtype=np.uint8)
        expect[informative_indices(benchmark_ds)] = 1
        assert np.array_equal(benchmark_oracle.best_mask, expect)
        assert benchmark_oracle.evaluated == 2 ** benchmark_ds.n_features - 1
        assert benchmark_oracle.runner_up_fitness < benchmark_oracle.best_fitness

    def test_overlapping_classes_prefer_every_column(self):
        """Known limitation: with the classes at separation 3 the criterion
        ranks all 10 columns (gc 0.89797) above the 3 informative ones (gc
        0.87314), so the certified optimum keeps the 7 noise columns. Seeds 1
        and 2 show the same ranking."""
        ds = standardize(synth_clusters(SynthSpec(cluster_separation=3.0), 0))
        result = exhaustive_best(ds, KCFG)
        informative = np.zeros(ds.n_features, dtype=np.uint8)
        informative[informative_indices(ds)] = 1
        assert result.best_mask.tolist() == [1] * 10
        assert result.best_fitness == pytest.approx(0.89797, abs=5e-6)
        assert gc(ds, informative, KCFG).gc == pytest.approx(0.87314, abs=5e-6)


def random_small_problem(seed: int):
    """Seeded dataset of 1-8 features, 2 or 3 classes, on a 0.01 value grid."""
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 9))
    n_classes = int(rng.integers(2, 4))
    n_samples = int(rng.integers(2 * n_classes, 16))
    labels = rng.permutation(np.arange(n_samples) % n_classes)
    samples = rng.integers(-200, 201, size=(n_samples, n_features)) / 100.0
    return make_dataset(samples, labels), KernelConfig(n_k=int(rng.integers(1, 4)))


def tie_heavy_problem(seed: int):
    """Seeded dataset of 1-7 features on a 0.1 value grid whose columns
    repeat, so that many masks score the same."""
    rng = np.random.default_rng(seed)
    n_base = int(rng.integers(1, 4))
    n_features = int(rng.integers(n_base, 8))
    n_classes = int(rng.integers(2, 4))
    n_samples = int(rng.integers(2 * n_classes, 12))
    labels = rng.permutation(np.arange(n_samples) % n_classes)
    base = rng.integers(-3, 4, size=(n_samples, n_base)) / 10.0
    extra = rng.integers(n_base, size=n_features - n_base)
    samples = base[:, rng.permutation(np.concatenate([np.arange(n_base), extra]))]
    return make_dataset(samples, labels), KernelConfig(n_k=int(rng.integers(1, 4)))


class TestMatchesReference:
    @pytest.mark.parametrize("problem", [random_small_problem, tie_heavy_problem])
    def test_same_optimum_and_runner_up(self, problem):
        # Floats compare by repr, so a signed zero or any last-bit change shows.
        ties = 0
        for seed in range(60):
            ds, kcfg = problem(seed)
            got = exhaustive_best(ds, kcfg)
            mask, best, evaluated, runner_up = reference_exhaustive_best(ds, kcfg)
            case = (seed, ds.n_features)
            assert got.best_mask.tolist() == mask.tolist(), case
            assert got.best_mask.dtype == np.uint8 and got.best_mask.base is None, case
            assert got.evaluated == evaluated, case
            assert repr(got.best_fitness) == repr(best), case
            assert repr(got.runner_up_fitness) == repr(runner_up), case
            ties += runner_up == best
        if problem is tie_heavy_problem:
            assert ties >= 10


class TestChunking:
    @pytest.mark.parametrize("per_chunk, less", [(1, 0), (4, 0), (1, 1)],
                             ids=["one-mask", "ragged", "no-checkpoint"])
    def test_same_result_for_any_chunk_size(self, per_chunk, less, monkeypatch):
        # 2^N - 1 masks are never a multiple of 4 when N >= 2, so the last
        # chunk is short. A budget below one width keeps no checkpoint.
        cases = [tie_heavy_problem(seed) for seed in range(30)]
        cases.append((make_dataset([[0.0], [1.0], [0.3]], [0, 1, 1]), KCFG))
        for seed, (ds, kcfg) in enumerate(cases):
            width = CriterionEngine(ds, kcfg)._width
            monkeypatch.setattr(criterion, "_MASK_CHUNK_BUDGET", per_chunk * width - less)
            got = exhaustive_best(ds, kcfg)
            mask, best, evaluated, runner_up = reference_exhaustive_best(ds, kcfg)
            case = (seed, ds.n_features)
            assert got.best_mask.tolist() == mask.tolist(), case
            assert got.evaluated == evaluated, case
            assert repr(got.best_fitness) == repr(best), case
            assert repr(got.runner_up_fitness) == repr(runner_up), case


class TestMAAgainstOracle:
    def test_ma_reaches_certified_optimum(self):
        # Fitness, not masks: the oracle breaks ties toward fewer bits.
        misses = []
        for seed in range(60):
            ds, kcfg = random_small_problem(seed)
            cfg = MAConfig(np=8, g_max=8, tl=3, ts_iters=20, init_neighbors=2, seed=seed)
            found = run_ma(ds, kcfg, cfg).best_fitness
            certified = exhaustive_best(ds, kcfg).best_fitness
            if found != certified:
                misses.append((seed, ds.n_features, found, certified))
        assert misses == []


class TestOracleDict:
    def test_payload(self, benchmark_ds, benchmark_oracle):
        out = oracle_to_dict(benchmark_oracle, benchmark_ds.feature_names)
        assert list(out) == [f.name for f in fields(OracleResult)] + ["best_features"]
        assert all(name.endswith("!inf") for name in out["best_features"])
        assert len(out["best_features"]) == 3
