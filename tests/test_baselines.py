import csv
import io
from dataclasses import fields

import numpy as np
import pytest

from conftest import make_dataset, standardize
from frsel import (
    BaselineConfig,
    KernelConfig,
    MAConfig,
    SynthSpec,
    baselines,
    compare,
    exhaustive_best,
    run_baseline,
    run_ma,
    runlog_lines,
    synth_clusters,
)
from frsel.baselines import BASELINE_KINDS, ComparisonRow, compare_csv_text
from frsel.criterion import CriterionEngine, popcount

KCFG = KernelConfig()


@pytest.fixture(scope="module")
def small_ds():
    spec = SynthSpec(n_informative=2, n_noise=3, samples_per_class=25,
                     cluster_separation=8.0)
    return standardize(synth_clusters(spec, seed=2))


@pytest.fixture(scope="module")
def small_oracle(small_ds):
    return exhaustive_best(small_ds, KCFG)


def one_feature_dataset():
    return make_dataset([[0.0], [0.1], [5.0], [5.1]], [1, 1, -1, -1])


class TestBaselineConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            BaselineConfig(kind="annealing")

    def test_population_floors(self):
        with pytest.raises(ValueError, match="at least 4"):
            BaselineConfig(kind="BDE", np=3)
        with pytest.raises(ValueError, match="at least 2"):
            BaselineConfig(kind="GA", np=1)
        BaselineConfig(kind="GA", np=2)  # fine

    def test_negative_generations(self):
        with pytest.raises(ValueError, match="g_max"):
            BaselineConfig(g_max=-1)

    def test_fitness_stop_not_nan(self):
        with pytest.raises(ValueError, match="fitness_stop must not be NaN"):
            BaselineConfig(fitness_stop=float("nan"))
        for stop in (float("inf"), float("-inf")):
            assert BaselineConfig(fitness_stop=stop).fitness_stop == stop


class TestEachKind:
    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_single_feature_is_selected(self, kind):
        ds = one_feature_dataset()
        cfg = BaselineConfig(kind=kind, np=4, g_max=2, seed=0)
        result = run_baseline(ds, KCFG, cfg)
        assert result.best_mask.tolist() == [1]

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_deterministic(self, kind, small_ds):
        cfg = BaselineConfig(kind=kind, np=8, g_max=5, seed=4)
        a = run_baseline(small_ds, KCFG, cfg)
        b = run_baseline(small_ds, KCFG, cfg)
        assert np.array_equal(a.best_mask, b.best_mask)
        assert a.best_fitness == b.best_fitness
        assert runlog_lines(a.log, include_timing=False) == runlog_lines(
            b.log, include_timing=False
        )

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_log_monotone_and_feasible(self, kind, small_ds):
        cfg = BaselineConfig(kind=kind, np=10, g_max=8, seed=1,
                             fitness_stop=2.0)
        result = run_baseline(small_ds, KCFG, cfg)
        bests = [r.best_fitness for r in result.log]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert all(popcount(r.best_mask) >= 1 for r in result.log)
        assert result.best_fitness == bests[-1]

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_reaches_small_space_optimum(self, kind, small_ds, small_oracle):
        cfg = BaselineConfig(kind=kind, np=20, g_max=30, seed=0,
                             fitness_stop=2.0)
        result = run_baseline(small_ds, KCFG, cfg)
        assert result.best_fitness <= small_oracle.best_fitness + 1e-12
        assert result.best_fitness >= small_oracle.best_fitness - 1e-9
        assert np.array_equal(result.best_mask, small_oracle.best_mask)

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_termination_contract(self, kind, small_ds):
        never = run_baseline(
            small_ds, KCFG,
            BaselineConfig(kind=kind, np=6, g_max=3, seed=0, fitness_stop=2.0),
        )
        assert never.terminated_by == "generation_limit"
        assert len(never.log) == 3
        instant = run_baseline(
            small_ds, KCFG,
            BaselineConfig(kind=kind, np=6, g_max=3, seed=0, fitness_stop=-0.6),
        )
        assert instant.terminated_by == "fitness_stop"
        assert len(instant.log) == 1

    @pytest.mark.parametrize("kind", ("MA",) + BASELINE_KINDS)
    def test_best_fitness_rescores_bit_for_bit(self, kind, small_ds):
        if kind == "MA":
            cfg = MAConfig(np=8, g_max=6, tl=3, ts_iters=5, init_neighbors=2, seed=7)
            result = run_ma(small_ds, KCFG, cfg)
        else:
            result = run_baseline(small_ds, KCFG, BaselineConfig(kind=kind, np=8, g_max=6, seed=7))
        rescored = CriterionEngine(small_ds, KCFG).evaluate(result.best_mask).gc
        assert result.best_fitness == rescored
        assert result.log[-1].best_fitness == rescored

    @pytest.mark.parametrize("kind", BASELINE_KINDS)
    def test_worker_count_does_not_change_results(self, kind, small_ds):
        cfg = BaselineConfig(kind=kind, np=8, g_max=6, fitness_stop=2.0, seed=11)
        serial = run_baseline(small_ds, KCFG, cfg, workers=0)
        pooled = run_baseline(small_ds, KCFG, cfg, workers=2)
        assert np.array_equal(serial.best_mask, pooled.best_mask)
        assert serial.best_fitness == pooled.best_fitness
        assert serial.total_evaluations == pooled.total_evaluations
        assert runlog_lines(serial.log, include_timing=False) == runlog_lines(
            pooled.log, include_timing=False
        )


class TestCompare:
    def test_study_rows(self, small_ds, small_oracle):
        ma_cfg = MAConfig(np=10, g_max=15, tl=5, ts_iters=10, fitness_stop=2.0)
        base_cfg = BaselineConfig(np=20, g_max=30, fitness_stop=2.0)
        rows = compare(
            small_ds, KCFG, ["MA", "GA", "BPSO", "BDE"], seeds=[0],
            ma_config=ma_cfg, baseline_config=base_cfg,
            reference_fitness=small_oracle.best_fitness,
        )
        assert [r.optimizer for r in rows] == ["MA", "GA", "BPSO", "BDE"]
        for row in rows:
            assert row.mean_time_s > 0.0
            assert row.best_fitness >= row.mean_fitness
            assert row.success_rate_pct == 100.0
            assert row.best_fitness <= small_oracle.best_fitness + 1e-12

    def test_success_rates_split(self, small_ds, small_oracle):
        # hunt for a seed where a 2-mask zero-generation GA provably
        # misses the optimum, then pit it against a real MA run
        weak = None
        for s in range(60):
            cfg = BaselineConfig(kind="GA", np=2, g_max=0, seed=s)
            r = run_baseline(small_ds, KCFG, cfg)
            if r.best_fitness < small_oracle.best_fitness - 1e-9:
                weak = s
                break
        assert weak is not None
        rows = compare(
            small_ds, KCFG, ["MA", "GA"], seeds=[weak],
            ma_config=MAConfig(np=10, g_max=15, tl=5, ts_iters=10),
            baseline_config=BaselineConfig(kind="GA", np=2, g_max=0),
            reference_fitness=small_oracle.best_fitness,
        )
        assert rows[0].success_rate_pct == 100.0
        assert rows[1].success_rate_pct == 0.0

    def test_empty_inputs_rejected(self, small_ds):
        with pytest.raises(ValueError, match="seeds"):
            compare(small_ds, KCFG, ["GA"], seeds=[])

    def test_repeated_kind_rejected(self, small_ds):
        with pytest.raises(ValueError, match="'GA' is repeated"):
            compare(small_ds, KCFG, ["GA", "BPSO", "GA"], seeds=[0])

    def test_unknown_kind_rejected_before_any_run(self, small_ds, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("an optimizer ran before the kinds were checked")

        monkeypatch.setattr(baselines, "run_ma", no_run)
        monkeypatch.setattr(baselines, "run_baseline", no_run)
        with pytest.raises(ValueError, match="unknown optimizer kind 'SA'"):
            compare(small_ds, KCFG, ["MA", "GA", "SA"], seeds=[0])

    def test_csv_round_trip(self, small_ds, small_oracle):
        rows = compare(
            small_ds, KCFG, ["BDE"], seeds=[0, 1],
            baseline_config=BaselineConfig(np=8, g_max=4),
        )
        text = compare_csv_text(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == [
            "optimizer", "mean_time_s", "best_fitness",
            "mean_fitness", "success_rate_pct",
        ]
        assert parsed[0] == [f.name for f in fields(ComparisonRow)]
        assert len(parsed) == 2
        assert parsed[1][0] == "BDE"
        assert float(parsed[1][2]) == rows[0].best_fitness
