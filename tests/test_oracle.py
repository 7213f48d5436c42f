import numpy as np
import pytest

from conftest import make_dataset
from frsel import KernelConfig, MAConfig, exhaustive_best, run_ma
from frsel.datasets import informative_indices
from frsel.memetic import fitness
from frsel.oracle import oracle_to_dict

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

    def test_runner_up_below_unique_best(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.normal(size=(12, 4)), [0] * 6 + [1] * 6)
        result = exhaustive_best(ds, KCFG)
        assert result.runner_up_fitness <= result.best_fitness
        assert result.best_fitness == fitness(result.best_mask, ds, KCFG)

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


def random_small_problem(seed: int):
    """Seeded dataset of 1-8 features, 2 or 3 classes, on a 0.01 value grid."""
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 9))
    n_classes = int(rng.integers(2, 4))
    n_samples = int(rng.integers(2 * n_classes, 16))
    labels = rng.permutation(np.arange(n_samples) % n_classes)
    samples = rng.integers(-200, 201, size=(n_samples, n_features)) / 100.0
    return make_dataset(samples, labels), KernelConfig(n_k=int(rng.integers(1, 4)))


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
        plain = oracle_to_dict(benchmark_oracle)
        assert set(plain) == {
            "best_mask", "best_fitness", "evaluated", "runner_up_fitness",
        }
        named = oracle_to_dict(benchmark_oracle, benchmark_ds.feature_names)
        assert all(name.endswith("!inf") for name in named["best_features"])
        assert len(named["best_features"]) == 3
