import json
import threading
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frsel.criterion as criterion
import frsel.memetic as memetic
from conftest import make_dataset, standardize
from frsel import (
    KernelConfig,
    MAConfig,
    SynthSpec,
    adapt_params,
    group_variance,
    run_ma,
    runlog_lines,
    synth_clusters,
)
from frsel.criterion import CriterionEngine, hex_to_mask, mask_to_hex, popcount
from frsel.memetic import (
    EMPTY_MASK_FITNESS,
    FitnessCache,
    GenerationRecord,
    bde_crossover,
    bde_mutate,
    init_population,
    repair_empty,
    runlog_record_dict,
    ts_local_search,
)
from reference import reference_ts_local_search


def bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


class FunctionCache:
    """The fitness-cache interface the search uses, over a plain function."""

    def __init__(self, f):
        self.f = f
        self.neighborhoods = {}

    def __call__(self, mask):
        return self.f(mask)

    def batch(self, masks):
        return [self.f(m) for m in masks]


def table_fitness(table: dict) -> FunctionCache:
    return FunctionCache(lambda m: table[tuple(int(b) for b in m)])


def tiny_dataset():
    spec = SynthSpec(n_informative=2, n_noise=4, samples_per_class=15)
    return standardize(synth_clusters(spec, seed=1))


class TestMAConfig:
    def test_defaults(self):
        cfg = MAConfig()
        assert (cfg.np, cfg.g_max, cfg.tl, cfg.ts_iters) == (80, 300, 20, 200)
        assert (cfg.f_min, cfg.f_max, cfg.cr_min, cfg.cr_max) == (0.4, 0.9, 0.3, 0.8)
        assert cfg.fitness_stop == 0.9950

    def test_population_floor(self):
        with pytest.raises(ValueError, match="np"):
            MAConfig(np=3)

    def test_bound_ordering(self):
        with pytest.raises(ValueError, match="f_min"):
            MAConfig(f_min=0.9, f_max=0.4)
        with pytest.raises(ValueError, match="cr_min"):
            MAConfig(cr_min=0.0)
        with pytest.raises(ValueError, match="cr_min"):
            MAConfig(cr_max=1.5)
        # f_g gates each bit, so it lies in (0, 1]; an infinite f_max used to
        # write a non-JSON NaN into the run log.
        for bad in (float("inf"), float("nan"), 1.5):
            with pytest.raises(ValueError, match=r"f_max <= 1"):
                MAConfig(f_max=bad)
        with pytest.raises(ValueError, match="f_min"):
            MAConfig(f_min=float("nan"))
        assert MAConfig(f_min=1.0, f_max=1.0).f_max == 1.0

    def test_negative_counts(self):
        for key in ("g_max", "tl", "ts_iters", "init_neighbors"):
            with pytest.raises(ValueError, match=key):
                MAConfig(**{key: -1})

    def test_fitness_stop_not_nan(self):
        with pytest.raises(ValueError, match="fitness_stop must not be NaN"):
            MAConfig(fitness_stop=float("nan"))
        for stop in (float("inf"), float("-inf")):
            assert MAConfig(fitness_stop=stop).fitness_stop == stop

    @pytest.mark.parametrize("key", ["np", "g_max", "tl", "ts_iters", "init_neighbors", "seed"])
    def test_int_fields_reject_other_types(self, key):
        # a fractional tl used to become a fractional tabu tenure, and a
        # fractional np or ts_iters a TypeError deep inside the run
        for bad in (4.5, 8.0, True, "8", None):
            with pytest.raises(ValueError, match=f"{key} must be an integer, got {bad!r}"):
                MAConfig(**{key: bad})

    def test_numpy_integers_become_ints(self):
        # a uint8 tl used to overflow the walk's expiry sum after 253 iterations
        cfg = MAConfig(np=np.int64(5), tl=np.uint8(3), ts_iters=np.int32(300))
        assert (cfg.np, cfg.tl, cfg.ts_iters) == (5, 3, 300)
        assert all(type(v) is int for v in (cfg.np, cfg.tl, cfg.ts_iters))
        ts_local_search(bits("10101"), cfg, FunctionCache(lambda m: float(m.sum() % 3)),
                        np.random.default_rng(0))


class TestGroupVariance:
    def test_hand_value(self):
        assert abs(group_variance([1.0, 2.0, 3.0]) - 2.0 / 9.0) < 1e-15

    def test_uniform_population(self):
        assert group_variance([0.7] * 5) == 0.0

    def test_all_zero_guarded(self):
        assert group_variance([0.0, 0.0, 0.0]) == 0.0

    def test_negative_best(self):
        # best value is -1, scaling is by its magnitude
        assert abs(group_variance([-1.0, -2.0, -3.0]) - 2.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            group_variance([])


class TestAdaptParams:
    def test_converged_population(self):
        cfg = MAConfig()
        f_g, cr_g = adapt_params(0.0, cfg)
        assert f_g == cfg.f_min
        assert cr_g == cfg.cr_max

    def test_fully_spread_population(self):
        cfg = MAConfig()
        f_g, cr_g = adapt_params(float(cfg.np), cfg)
        assert f_g == cfg.f_max
        assert cr_g == cfg.cr_min

    def test_overspread_clamps(self):
        cfg = MAConfig()
        f_g, cr_g = adapt_params(2.0 * cfg.np, cfg)
        assert f_g == cfg.f_max
        assert cr_g == cfg.cr_min

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            adapt_params(-0.001, MAConfig())

    @given(st.floats(0.0, 1000.0))
    @settings(max_examples=80, deadline=None)
    def test_bounds_property(self, sigma_sq):
        cfg = MAConfig()
        f_g, cr_g = adapt_params(sigma_sq, cfg)
        assert cfg.f_min <= f_g <= cfg.f_max
        assert cfg.cr_min <= cr_g <= cfg.cr_max


def other_rows_xor3(pop: np.ndarray, i: int) -> list[list[int]]:
    """XOR of every three distinct rows of pop other than row i."""
    others = [j for j in range(pop.shape[0]) if j != i]
    return [(pop[a] ^ pop[b] ^ pop[c]).tolist() for a, b, c in combinations(others, 3)]


class TestMutation:
    """bde_mutate builds one mutant per row of the population."""

    POP = np.array(
        [bits("10110010"), bits("11000111"), bits("01000100"),
         bits("00111001"), bits("11110000"), bits("00001011")]
    )

    def test_full_rate_applies_every_difference(self):
        # at rate 1 every differing donor bit is flipped, so each mutant is
        # base ^ d1 ^ d2 for some three distinct other rows
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = bde_mutate(self.POP, 1.0, rng)
            assert out.shape == self.POP.shape and out.dtype == np.uint8
            for i in range(self.POP.shape[0]):
                assert out[i].tolist() in other_rows_xor3(self.POP, i)

    def test_zero_rate_returns_base(self):
        # the base of row i is another row, used as is
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = bde_mutate(self.POP, 0.0, rng)
            for i in range(self.POP.shape[0]):
                assert any(out[i].tolist() == self.POP[j].tolist()
                           for j in range(self.POP.shape[0]) if j != i)

    def test_equal_donors_return_base(self):
        # in a population of one repeated mask every pair of donors agrees
        pop = np.tile(bits("10110"), (5, 1))
        out = bde_mutate(pop, 0.7, np.random.default_rng(0))
        assert out.tolist() == pop.tolist()

    def test_donors_distinct_and_exclude_slot(self):
        # one-hot rows make donor identities visible in the mutant: three
        # distinct donors XOR to a popcount-3 mask avoiding position i
        pop = np.eye(6, dtype=np.uint8)
        rng = np.random.default_rng(7)
        for _ in range(200):
            mutants = bde_mutate(pop, 1.0, rng)
            assert mutants.sum(axis=1).tolist() == [3] * 6
            assert not mutants.diagonal().any()

    def test_roles_follow_ascending_keys(self):
        # the base is the row with the smallest of np - 1 keys, the row's own
        # index skipped, and the donors the rows with the next two: the first
        # draw, shaped (np, np - 1). One-hot rows show the base at rate 0 and
        # the set of all three (base ^ d1 ^ d2) at rate 1
        for n_pop in (4, 6, 80):
            pop = np.eye(n_pop, dtype=np.uint8)
            keys = np.random.default_rng(3).random((n_pop, n_pop - 1))
            roles = keys.argsort(axis=1)[:, :3]
            roles += roles >= np.arange(n_pop)[:, None]
            out = bde_mutate(pop, 0.0, np.random.default_rng(3))
            assert out.tolist() == pop[roles[:, 0]].tolist()
            out = bde_mutate(pop, 1.0, np.random.default_rng(3))
            assert [set(np.flatnonzero(row).tolist()) for row in out] == [
                set(r) for r in roles.tolist()
            ]

    def test_fewer_than_four_rows_rejected(self):
        # three rows leave two keys per row, too few for three distinct roles
        with pytest.raises(ValueError, match="at least 4 rows, got 3"):
            bde_mutate(np.eye(3, dtype=np.uint8), 0.5, np.random.default_rng(0))


class TestCrossover:
    """bde_crossover mixes each row with its mutant."""

    def test_forced_index_only(self):
        # at rate 0 only the forced position comes from the mutant, and it
        # is always taken
        rng = np.random.default_rng(0)
        target = np.zeros((40, 4), dtype=np.uint8)
        mutants = np.ones((40, 4), dtype=np.uint8)
        out = bde_crossover(target, mutants, 0.0, rng)
        assert out.sum(axis=1).tolist() == [1] * 40
        assert set(out.argmax(axis=1).tolist()) == {0, 1, 2, 3}

    def test_rate_one_copies_mutant(self):
        rng = np.random.default_rng(1)
        target = np.tile(bits("010101"), (5, 1))
        mutants = np.tile(bits("101010"), (5, 1))
        out = bde_crossover(target, mutants, 1.0, rng)
        assert out.tolist() == mutants.tolist()

    def test_rate_zero_changes_at_most_one_bit(self):
        rng = np.random.default_rng(2)
        target = rng.integers(0, 2, (30, 6), dtype=np.uint8)
        mutants = rng.integers(0, 2, (30, 6), dtype=np.uint8)
        for _ in range(20):
            out = bde_crossover(target, mutants, 0.0, rng)
            assert (out ^ target).sum(axis=1).max() <= 1


class TestSelection:
    def test_three_rules(self):
        # through one DE generation with fitness = popcount: a fitter trial
        # replaces its target, a less fit one does not, and a tie keeps
        # the trial
        cfg = MAConfig(np=12, ts_iters=0)
        rng = np.random.default_rng(5)
        pop = repair_empty(rng.integers(0, 2, (12, 6), dtype=np.uint8), rng)
        fits = pop.sum(axis=1).astype(np.float64)
        f_g, cr_g = adapt_params(group_variance(fits), cfg)
        again = np.random.default_rng(6)
        trials = bde_crossover(pop, bde_mutate(pop, f_g, again), cr_g, again)
        (new_pop, new_fits), _ = memetic._ma_step(
            cfg, (pop, fits), FunctionCache(lambda m: float(popcount(m))),
            np.random.default_rng(6),
        )
        trial_fits = trials.sum(axis=1)
        changed = (trials != pop).any(axis=1)
        assert (trial_fits > fits).any() and (trial_fits < fits).any()
        assert ((trial_fits == fits) & changed).any()
        keep = trial_fits >= fits
        assert new_pop.tolist() == np.where(keep[:, None], trials, pop).tolist()
        assert new_fits.tolist() == np.maximum(trial_fits, fits).tolist()

    def test_walk_starts_from_first_fittest_row(self, monkeypatch):
        # rows 1, 3 and 4 tie for the top fitness; the DE step keeps the
        # population as it is, so the walk must start from row 1, and its
        # better mask replaces row 1 only
        pop = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                        [0, 0, 0, 1], [1, 1, 0, 0]], dtype=np.uint8)
        table = {(1, 0, 0, 0): 0.2, (0, 1, 0, 0): 0.7, (0, 0, 1, 0): 0.5,
                 (0, 0, 0, 1): 0.7, (1, 1, 0, 0): 0.7, (1, 1, 1, 1): 0.9}
        fits = np.array([table[tuple(row)] for row in pop.tolist()])
        starts = []

        def walk(start, cfg, cache, rng):
            starts.append(start.tolist())
            return np.ones(4, dtype=np.uint8)

        monkeypatch.setattr(memetic, "bde_crossover", lambda pop, mutants, cr, rng: pop.copy())
        monkeypatch.setattr(memetic, "ts_local_search", walk)
        (new_pop, new_fits), _ = memetic._ma_step(
            MAConfig(np=5, ts_iters=3), (pop, fits), table_fitness(table),
            np.random.default_rng(0),
        )
        assert starts == [[0, 1, 0, 0]]
        assert new_pop.tolist() == [pop[0].tolist(), [1, 1, 1, 1], *pop[2:].tolist()]
        assert new_fits.tolist() == [0.2, 0.9, 0.5, 0.7, 0.7]


TRAJECTORY_TABLE = {
    (0, 0, 1): 0.55,
    (0, 1, 0): 0.2,
    (0, 1, 1): 0.9,
    (1, 0, 0): 0.95,
    (1, 0, 1): 0.5,
    (1, 1, 0): 0.4,
    (1, 1, 1): 0.6,
}


class TestTabuSearch:
    def test_hand_trajectory(self):
        # it 1: free descent to 011 (0.9). it 2: flipping bit 0 back is
        # tabu and 0.6 does not aspire, so the walk accepts the worsening
        # admissible move to 001 (0.55). it 3: every move is tabu but the
        # swap to 100 (0.95) beats the best seen, so aspiration admits it.
        cfg = MAConfig(tl=10, ts_iters=3)
        trace = []
        best = ts_local_search(
            bits("111"), cfg, table_fitness(TRAJECTORY_TABLE),
            np.random.default_rng(0), trace=trace,
        )
        assert trace == [(1, (0,), 0.9), (2, (1,), 0.55), (3, (2, 0), 0.95)]
        assert best.tolist() == [1, 0, 0]

    def test_all_tabu_fallback(self):
        # with 100 demoted to 0.55 nothing aspires at it 3; the best
        # forbidden move (back to 011) is taken so the walk cannot stall
        table = dict(TRAJECTORY_TABLE)
        table[(1, 0, 0)] = 0.55
        cfg = MAConfig(tl=10, ts_iters=3)
        trace = []
        best = ts_local_search(
            bits("111"), cfg, table_fitness(table),
            np.random.default_rng(0), trace=trace,
        )
        assert trace[2] == (3, (1,), 0.9)
        assert best.tolist() == [0, 1, 1]

    def test_aspiration_is_strict(self):
        # at it 2 the tabu mask 101 exactly ties the best fitness; a
        # non-strict rule would take it, the strict one accepts 001 (0.3)
        table = {
            (1, 1, 1): 0.6,
            (0, 1, 1): 0.9,
            (1, 0, 1): 0.9,
            (1, 1, 0): 0.4,
            (0, 0, 1): 0.3,
            (0, 1, 0): 0.2,
            (1, 0, 0): 0.0,
        }
        cfg = MAConfig(tl=10, ts_iters=2)
        trace = []
        best = ts_local_search(
            bits("111"), cfg, table_fitness(table),
            np.random.default_rng(0), trace=trace,
        )
        assert trace == [(1, (0,), 0.9), (2, (1,), 0.3)]
        assert best.tolist() == [0, 1, 1]

    def test_takes_unique_improvement(self):
        table = {(1, 1, 1): 0.5, (0, 1, 1): 0.4, (1, 0, 1): 0.45, (1, 1, 0): 0.9}
        cfg = MAConfig(tl=5, ts_iters=1)
        best = ts_local_search(
            bits("111"), cfg, table_fitness(table), np.random.default_rng(0)
        )
        assert best.tolist() == [1, 1, 0]

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ts_local_search(bits("000"), MAConfig(), FunctionCache(lambda m: 0.0),
                            np.random.default_rng(0))

    @pytest.mark.parametrize("start", [[0.5, 1, 1], [2, 1, 0], [[1, 0, 1]]])
    def test_non_mask_start_rejected(self, start):
        # [0.5, 1, 1] used to be cast to uint8 and walked from [0, 1, 1]
        with pytest.raises(ValueError, match="mask"):
            ts_local_search(np.array(start), MAConfig(), FunctionCache(lambda m: 0.0),
                            np.random.default_rng(0))

    def test_all_tabu_iterations_scan_no_moves(self):
        # with a tenure longer than the walk, a position stays tabu once
        # touched; an iteration whose first move does not aspire scans its
        # move list only while some position is still free
        n = 5
        f = rounded_weight_fitness(n, 2)
        fn = FunctionCache(f)
        start = random_start(n, 2)
        cfg = MAConfig(tl=1000, ts_iters=60)
        ts_local_search(start, cfg, fn, np.random.default_rng(0))
        scans = []

        class Moves(list):
            def __iter__(self):
                scans.append(1)
                return super().__iter__()

        fn.neighborhoods = {key: Moves(moves) for key, moves in fn.neighborhoods.items()}
        trace = []
        ts_local_search(start, cfg, fn, np.random.default_rng(0), trace=trace)
        best_f, touched, idle, expected = f(start), set(), 0, 0
        for _, move, chosen_f in trace:
            if chosen_f > best_f:
                best_f = chosen_f
            else:
                idle += 1
                expected += len(touched) < n
            touched.update(move)
        assert len(touched) == n
        assert len(scans) == expected < idle

    def test_zero_iterations_returns_start(self):
        cfg = MAConfig(ts_iters=0)
        start = bits("101")
        out = ts_local_search(start, cfg, table_fitness(TRAJECTORY_TABLE),
                              np.random.default_rng(0))
        assert out.tolist() == start.tolist()
        assert out is not start

    def test_single_feature_has_no_moves(self):
        out = ts_local_search(bits("1"), MAConfig(ts_iters=4),
                              FunctionCache(lambda m: 0.5), np.random.default_rng(0))
        assert out.tolist() == [1]


def rounded_weight_fitness(n: int, seed: int):
    """Linear plus pairwise terms on a 0.5 grid, rounded: ties everywhere."""
    rng = np.random.default_rng(seed)
    w = np.round(rng.normal(size=n) * 2) / 2
    pair = np.round(rng.normal(size=(n, n))) / 2

    def f(mask):
        m = np.asarray(mask, dtype=np.float64)
        return round(float(w @ m + m @ pair @ m) / 4, 0) / 4

    return f


def random_start(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    return repair_empty(rng.integers(0, 2, (1, n), dtype=np.uint8), rng)[0]


def walk_both(start, cfg, fitness_ref, fitness_new, rng_seed):
    """Run the reference and the package walk; return both (trace, mask, rng)."""
    out = []
    for walk, fn in ((reference_ts_local_search, fitness_ref), (ts_local_search, fitness_new)):
        rng = np.random.default_rng(rng_seed)
        trace = []
        best = walk(start.copy(), cfg, fn, rng, trace=trace)
        out.append((trace, best, rng.bit_generator.state))
    return out


class TestTabuMatchesReference:
    """The array-native walk reproduces the list-based walk it replaced."""

    @given(
        n=st.integers(1, 50),
        tl=st.integers(0, 40),
        iters=st.integers(0, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=48, tl=3, iters=8, seed=1)
    @example(n=3, tl=10, iters=12, seed=7)
    @example(n=4, tl=30, iters=60, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_plain_callable(self, n, tl, iters, seed):
        f = rounded_weight_fitness(n, seed)
        cfg = MAConfig(tl=tl, ts_iters=iters)
        (ref_trace, ref_best, ref_rng), (trace, best, rng) = walk_both(
            random_start(n, seed), cfg, f, FunctionCache(f), seed
        )
        assert trace == ref_trace
        assert best.dtype == np.uint8
        assert best.tolist() == ref_best.tolist()
        assert rng == ref_rng

    @given(
        n=st.integers(1, 50),
        tl=st.integers(0, 8),
        iters=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=46, tl=2, iters=4, seed=3)
    @settings(max_examples=12, deadline=None)
    def test_fitness_cache(self, n, tl, iters, seed):
        # two walks in a row per cache, so the second one revisits masks
        # whose neighborhoods the first one stored on the cache
        rng = np.random.default_rng(seed)
        labels = [0, 1] * 5
        ds = standardize(make_dataset(np.round(rng.normal(size=(10, n)), 1), labels))
        ref_cache = FitnessCache(ds, KernelConfig())
        cache = FitnessCache(ds, KernelConfig())
        cfg = MAConfig(tl=tl, ts_iters=iters)
        start = random_start(n, seed)
        for _ in range(2):
            (ref_trace, ref_best, ref_rng), (trace, best, rng_state) = walk_both(
                start, cfg, ref_cache, cache, seed
            )
            assert trace == ref_trace
            assert best.tolist() == ref_best.tolist()
            assert rng_state == ref_rng
            assert cache.evaluations == ref_cache.evaluations
            start = best


class TestTabuAtSelect10Shape:
    @pytest.mark.parametrize("seed", [5, 17, 211])
    def test_two_walks_match_reference(self, benchmark_ds, seed):
        # the MA's own regime: N = 10, tl 20, 200 iterations, and a second
        # walk that continues the first one's RNG and starts from its best,
        # so it mostly reads neighborhoods the first one stored
        ref_cache = FitnessCache(benchmark_ds, KernelConfig())
        cache = FitnessCache(benchmark_ds, KernelConfig())
        cfg = MAConfig(tl=20, ts_iters=200)
        ref_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        ref_start = start = random_start(10, seed)
        for _ in range(2):
            ref_trace, trace = [], []
            ref_start = reference_ts_local_search(ref_start, cfg, ref_cache, ref_rng, trace=ref_trace)
            start = ts_local_search(start, cfg, cache, rng, trace=trace)
            assert len(trace) == 200
            assert trace == ref_trace
            assert start.tolist() == ref_start.tolist()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert cache.evaluations == ref_cache.evaluations


class TestTabuMoveTable:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entries_in_fitness_order_ties_in_neighborhood_order(self, seed):
        n = 9
        fn = FunctionCache(rounded_weight_fitness(n, seed))
        ts_local_search(random_start(n, seed), MAConfig(tl=3, ts_iters=30), fn,
                        np.random.default_rng(seed))
        assert fn.neighborhoods
        ties = 0
        for key, moves in fn.neighborhoods.items():
            mask = np.frombuffer(key, dtype=np.uint8)
            first, second = memetic._neighborhood(mask)
            fits = [fn(memetic._toggled(mask, first[i:i + 1], second[i:i + 1])[0])
                    for i in range(first.size)]
            order = sorted(range(first.size), key=lambda i: -fits[i])
            assert isinstance(moves, list)
            assert moves == [(fits[i], int(first[i]), int(second[i])) for i in order]
            ties += len(fits) - len(set(fits))
        assert ties > 0

    def test_large_neighborhood_is_sampled_not_stored(self):
        # 46 features with 23 selected give 46 + 23 * 23 = 575 moves, over
        # the 500 the walk stores; it samples them with the reference's draw
        n = 46
        f = rounded_weight_fitness(n, 4)
        fn = FunctionCache(f)
        start = np.zeros(n, dtype=np.uint8)
        start[::2] = 1
        assert memetic._neighborhood(start)[0].size == 575
        (ref_trace, _, ref_rng), (trace, _, rng) = walk_both(start, MAConfig(ts_iters=1), f, fn, 4)
        assert trace == ref_trace
        assert rng == ref_rng != np.random.default_rng(4).bit_generator.state
        assert start.tobytes() not in fn.neighborhoods

    @pytest.mark.parametrize("n", [3, 46])
    def test_nan_neighbor_fitness_rejected(self, n):
        start = np.zeros(n, dtype=np.uint8)
        start[::2] = 1
        nan_at = start.copy()
        nan_at[1] = 1

        def f(mask):
            return float("nan") if np.array_equal(mask, nan_at) else float(mask.sum())

        with pytest.raises(ValueError, match=f"NaN fitness .* mask {mask_to_hex(start)}"):
            ts_local_search(start, MAConfig(ts_iters=3), FunctionCache(f),
                            np.random.default_rng(0))


class TestRepairAndInit:
    def test_repair_sets_exactly_one_bit(self):
        # every empty row gets one bit; 20 rows see more than one position
        rng = np.random.default_rng(0)
        masks = np.zeros((20, 8), dtype=np.uint8)
        masks[3] = bits("01000010")
        out = repair_empty(masks, rng)
        assert out is masks
        assert out.sum(axis=1).tolist() == [1, 1, 1, 2] + [1] * 16
        assert out[3].tolist() == bits("01000010").tolist()
        assert len(set(out.argmax(axis=1).tolist())) > 1

    def test_repair_leaves_nonempty_alone(self):
        rng = np.random.default_rng(0)
        masks = np.array([bits("0100"), bits("1001")])
        before = rng.bit_generator.state
        assert repair_empty(masks, rng).tolist() == [[0, 1, 0, 0], [1, 0, 0, 1]]
        assert rng.bit_generator.state == before

    def test_init_population_shape_and_feasibility(self):
        cfg = MAConfig(np=12, init_neighbors=3)
        counter = {"n": 0}

        def f(mask):
            counter["n"] += 1
            return float(popcount(mask))

        pop = init_population(9, cfg, FunctionCache(f), np.random.default_rng(4))
        assert pop.shape == (12, 9)
        assert pop.dtype == np.uint8
        assert all(popcount(row) >= 1 for row in pop)

    def test_init_population_deterministic(self):
        cfg = MAConfig(np=10, init_neighbors=5)
        f = FunctionCache(lambda mask: -float(popcount(mask)))
        a = init_population(7, cfg, f, np.random.default_rng(11))
        b = init_population(7, cfg, f, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_init_local_step_improves(self):
        # with fitness = -popcount the flip neighbors that drop a bit win,
        # so refined rows are never heavier than pure random rows
        cfg = MAConfig(np=30, init_neighbors=5, seed=0)
        refined = init_population(10, cfg, FunctionCache(lambda m: -float(popcount(m))),
                                  np.random.default_rng(2))
        raw = init_population(10, MAConfig(np=30, init_neighbors=0),
                              FunctionCache(lambda m: 0.0), np.random.default_rng(2))
        assert sum(popcount(r) for r in refined) <= sum(popcount(r) for r in raw)

    def test_init_scores_every_candidate_in_one_batch(self):
        calls = []

        def f(mask):
            return -float(popcount(mask))

        class Counting(FunctionCache):
            def batch(self, masks):
                calls.append(len(masks))
                return super().batch(masks)

        cfg = MAConfig(np=7, init_neighbors=4)
        pop = init_population(9, cfg, Counting(f), np.random.default_rng(1))
        assert calls == [7 * 5]
        assert pop.shape == (7, 9)


class TestFitnessCache:
    def test_counts_distinct_masks_only(self):
        ds = tiny_dataset()
        cache = FitnessCache(ds, KernelConfig())
        m = bits("110000")
        first = cache(m)
        second = cache(m)
        assert first == second
        assert cache.evaluations == 1

    def test_empty_mask_sentinel(self):
        ds = tiny_dataset()
        cache = FitnessCache(ds, KernelConfig())
        assert cache(bits("000000")) == EMPTY_MASK_FITNESS

    def test_batch_dedupes(self):
        ds = tiny_dataset()
        cache = FitnessCache(ds, KernelConfig())
        masks = [bits("100000"), bits("010000"), bits("100000"), bits("001000")]
        values = cache.batch(masks)
        assert cache.evaluations == 3
        assert values[0] == values[2]
        again = cache.batch(masks)
        assert cache.evaluations == 3
        assert again == values

    def test_worker_pool_matches_serial(self):
        ds = tiny_dataset()
        rng = np.random.default_rng(9)
        masks = list(repair_empty(rng.integers(0, 2, (12, 6), dtype=np.uint8), rng))
        serial = FitnessCache(ds, KernelConfig())
        pooled = FitnessCache(ds, KernelConfig(), workers=3)
        try:
            assert serial.batch(masks) == pooled.batch(masks)
            assert serial.evaluations == pooled.evaluations
        finally:
            pooled.close()

    def test_matches_direct_fitness(self, monkeypatch):
        # Each cached value is the engine's one-mask gc bit for bit, on the
        # stored and the per-call distance path and at any worker count. New
        # masks reach the kernel as one stack, or one non-empty contiguous
        # slice per worker, the first scored by the calling thread.
        ds = tiny_dataset()
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 2, (20, 6), dtype=np.uint8)
        stack = np.vstack([rows, rows[:5], np.zeros((2, 6), dtype=np.uint8)])
        stack = stack[rng.permutation(len(stack))]
        distinct = {row.tobytes() for row in stack}
        live = len(distinct) - 1
        new_rows = np.array([np.frombuffer(key, dtype=np.uint8) for key in
                             dict.fromkeys(row.tobytes() for row in stack if row.any())])
        lone = next(m for m in map(bits, ("101010", "010101", "110011"))
                    if m.tobytes() not in distinct)
        sizes = []
        mine = []
        evaluate_many = CriterionEngine.evaluate_many

        def spy(engine, masks):
            sizes.append(len(masks))
            if threading.get_ident() == threading.main_thread().ident:
                mine.append(masks.copy())
            return evaluate_many(engine, masks)

        monkeypatch.setattr(CriterionEngine, "evaluate_many", spy)
        for budget in (criterion._STORE_BUDGET, 0):
            monkeypatch.setattr(criterion, "_STORE_BUDGET", budget)
            engine = CriterionEngine(ds, KernelConfig())
            assert (engine._store is None) == (budget == 0)

            def direct(masks):
                return [(engine.evaluate(m).gc if m.any() else EMPTY_MASK_FITNESS).hex()
                        for m in masks]

            for workers in (0, 2, 3):
                cache = FitnessCache(ds, KernelConfig(), workers=workers)
                try:
                    sizes.clear()
                    mine.clear()
                    assert [v.hex() for v in cache.batch(stack)] == direct(stack)
                    assert cache.evaluations == len(distinct)
                    assert sum(sizes) == live and len(sizes) == max(1, workers) and min(sizes) > 0
                    head = np.array_split(new_rows, max(1, workers))[0]
                    assert len(mine) == 1 and np.array_equal(mine[0], head)
                    # One live row beside a cached empty mask.
                    sizes.clear()
                    one = [lone, np.zeros(6, dtype=np.uint8), lone]
                    assert [v.hex() for v in cache.batch(one)] == direct(one)
                    assert cache.evaluations == len(distinct) + 1
                    assert sizes == [1]
                finally:
                    cache.close()

    def test_fewer_masks_than_workers(self, monkeypatch):
        # Three new masks and workers=5: three one-row slices, none empty,
        # on the calling thread and at most two helpers.
        ds = tiny_dataset()
        masks = [bits("100000"), bits("010000"), bits("001000")]
        calls = []
        evaluate_many = CriterionEngine.evaluate_many

        def spy(engine, stack):
            calls.append((threading.get_ident(), stack.tolist()))
            return evaluate_many(engine, stack)

        monkeypatch.setattr(CriterionEngine, "evaluate_many", spy)
        cache = FitnessCache(ds, KernelConfig(), workers=5)
        try:
            values = cache.batch(masks)
        finally:
            cache.close()
        assert sorted(rows for _, rows in calls) == [[m.tolist()] for m in reversed(masks)]
        assert (threading.get_ident(), [masks[0].tolist()]) in calls
        assert len({thread for thread, _ in calls}) <= 3
        assert values == [FitnessCache(ds, KernelConfig())(m) for m in masks]

    @pytest.mark.parametrize("bad", [
        [1, 1, 0, 0, 0, 256],
        [256, 0, 0, 0, 0, 0],
        [0.0, 0, 0],
        [1.7, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, -1],
        [[1, 0, 0, 0, 0, 0]],
        [0.5, 0, 0, 0, 0, 0],  # used to score as the empty mask
        [2, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
    ])
    def test_rejects_non_mask_input(self, bad):
        cache = FitnessCache(tiny_dataset(), KernelConfig())
        with pytest.raises(ValueError):
            cache(bad)
        with pytest.raises(ValueError):
            cache.batch([bad])
        assert cache.evaluations == 0

    def test_rejected_batch_evaluates_nothing(self):
        cache = FitnessCache(tiny_dataset(), KernelConfig())
        with pytest.raises(ValueError, match="0 or 1"):
            cache.batch([bits("110000"), [1, 1, 0, 0, 0, 2]])
        assert cache.evaluations == 0
        assert cache.batch([]) == []

    def test_batch_accepts_2d_arrays_and_other_dtypes(self):
        cache = FitnessCache(tiny_dataset(), KernelConfig())
        masks = np.array([bits("100100"), bits("011000")])
        expected = cache.batch(list(masks))
        assert cache.batch(masks) == expected
        assert cache.batch(masks.astype(bool)) == expected
        assert cache.batch(masks.astype(np.float64).tolist()) == expected
        assert cache(masks[0].astype(np.int64)) == expected[0]
        assert cache.evaluations == 2

    def test_close_is_idempotent(self):
        cache = FitnessCache(tiny_dataset(), KernelConfig(), workers=2)
        cache.close()
        cache.close()


class TestFitness:
    """One-shot scoring: a fresh FitnessCache called on a single mask."""

    @staticmethod
    def fitness(mask, ds, kcfg=KernelConfig()):
        return FitnessCache(ds, kcfg)(mask)

    @pytest.mark.parametrize("bad", [
        [0.5, 0, 0, 0, 0, 0],  # used to score as the empty mask
        [1.7, 0, 0, 0, 0, 0],  # used to score as [1, 0, ...]
        [2, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],  # one bit short
        [1, 0, 0, 0, 0, 0, 0],  # one bit long
    ])
    def test_rejects_non_mask_input(self, bad):
        with pytest.raises(ValueError):
            self.fitness(bad, tiny_dataset(), KernelConfig())

    def test_accepts_masks_of_any_numeric_dtype(self):
        ds = tiny_dataset()
        expected = self.fitness(bits("011000"), ds)
        assert self.fitness([0, 1, 1, 0, 0, 0], ds) == expected
        assert self.fitness(bits("011000").astype(bool), ds) == expected
        assert self.fitness([0.0, 1.0, 1.0, 0.0, 0.0, 0.0], ds) == expected
        assert self.fitness(bits("000000"), ds) == EMPTY_MASK_FITNESS


class TestRunMA:
    CFG = dict(np=8, g_max=10, tl=3, ts_iters=5, init_neighbors=2, seed=3)

    def test_deterministic_repeats(self):
        ds = tiny_dataset()
        kcfg = KernelConfig()
        a = run_ma(ds, kcfg, MAConfig(**self.CFG))
        b = run_ma(ds, kcfg, MAConfig(**self.CFG))
        assert np.array_equal(a.best_mask, b.best_mask)
        assert a.best_fitness == b.best_fitness
        assert a.total_evaluations == b.total_evaluations
        assert runlog_lines(a.log, include_timing=False) == runlog_lines(
            b.log, include_timing=False
        )

    def test_worker_count_does_not_change_results(self):
        ds = tiny_dataset()
        kcfg = KernelConfig()
        serial = run_ma(ds, kcfg, MAConfig(**self.CFG), workers=0)
        pooled = run_ma(ds, kcfg, MAConfig(**self.CFG), workers=2)
        assert np.array_equal(serial.best_mask, pooled.best_mask)
        assert serial.best_fitness == pooled.best_fitness
        assert runlog_lines(serial.log, include_timing=False) == runlog_lines(
            pooled.log, include_timing=False
        )
        assert serial.total_evaluations == pooled.total_evaluations

    def test_log_shape_and_monotonicity(self):
        ds = tiny_dataset()
        result = run_ma(ds, KernelConfig(), MAConfig(**self.CFG))
        assert [r.g for r in result.log] == list(range(1, len(result.log) + 1))
        bests = [r.best_fitness for r in result.log]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        evals = [r.evaluations_so_far for r in result.log]
        assert all(e2 >= e1 for e1, e2 in zip(evals, evals[1:]))
        for r in result.log:
            assert r.mean_fitness <= r.best_fitness
            assert popcount(r.best_mask) >= 1

    def test_best_fitness_is_reproducible_from_mask(self):
        ds = tiny_dataset()
        kcfg = KernelConfig()
        result = run_ma(ds, kcfg, MAConfig(**self.CFG))
        assert popcount(result.best_mask) >= 1
        assert result.best_fitness == FitnessCache(ds, kcfg)(result.best_mask)

    def test_unreachable_stop_runs_all_generations(self):
        ds = tiny_dataset()
        cfg = MAConfig(fitness_stop=2.0, **self.CFG)
        result = run_ma(ds, KernelConfig(), cfg)
        assert result.terminated_by == "generation_limit"
        assert len(result.log) == cfg.g_max

    def test_trivial_stop_halts_after_first_generation(self):
        ds = tiny_dataset()
        cfg = MAConfig(fitness_stop=-0.6, **self.CFG)
        result = run_ma(ds, KernelConfig(), cfg)
        assert result.terminated_by == "fitness_stop"
        assert len(result.log) == 1

    def test_zero_generations(self):
        ds = tiny_dataset()
        kcfg = KernelConfig()
        cfg = MAConfig(np=8, g_max=0, seed=5)
        result = run_ma(ds, kcfg, cfg)
        assert result.log == []
        assert result.terminated_by == "generation_limit"
        assert result.best_fitness == FitnessCache(ds, kcfg)(result.best_mask)

    def test_zero_ts_iters_never_call_local_search(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("local search must stay disabled")

        monkeypatch.setattr(memetic, "ts_local_search", boom)
        cfg = MAConfig(**{k: v for k, v in self.CFG.items() if k != "ts_iters"}, ts_iters=0)
        result = run_ma(tiny_dataset(), KernelConfig(), cfg)
        assert result.best_fitness >= -0.5


class TestRunlog:
    def test_record_dict_contents(self):
        ds = tiny_dataset()
        result = run_ma(ds, KernelConfig(), MAConfig(np=8, g_max=2, seed=1))
        rec = result.log[0]
        full = runlog_record_dict(rec)
        assert set(full) == {
            "g", "best_fitness", "mean_fitness", "sigma_sq",
            "f_g", "cr_g", "best_mask", "evaluations_so_far", "elapsed_ms",
        }
        trimmed = runlog_record_dict(rec, include_timing=False)
        assert "elapsed_ms" not in trimmed
        names = [f.name for f in fields(GenerationRecord)]
        assert list(full) == names
        assert list(trimmed) == [name for name in names if name != "elapsed_ms"]
        decoded = hex_to_mask(full["best_mask"], ds.n_features)
        assert np.array_equal(decoded, rec.best_mask)

    def test_lines_are_json(self):
        result = run_ma(tiny_dataset(), KernelConfig(), MAConfig(np=8, g_max=3, seed=1))
        lines = runlog_lines(result.log, include_timing=False)
        assert len(lines) == len(result.log)
        for line, rec in zip(lines, result.log):
            obj = json.loads(line)
            assert obj["g"] == rec.g
            assert obj["best_fitness"] == rec.best_fitness
