import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from frsel import KernelConfig, criterion, gc
from frsel.criterion import (
    CriterionEngine,
    _column_sq_dists,
    approx_memberships,
    as_mask,
    g_gamma,
    g_omega,
    gaussian_kernel,
    hex_to_mask,
    int_to_mask,
    mask_from_names,
    mask_names,
    mask_to_hex,
    mask_to_int,
    popcount,
)
from frsel.evaluation import knn_predict
from frsel.memetic import FitnessCache
from reference import dense_evaluate, random_grid_case, reference_criterion

N1 = KernelConfig(delta=1.0, per_feature_normalization=True, n_k=1)


def coincident_pair():
    return make_dataset([[0.0], [0.0]], [1, -1])


def unit_gap_pair():
    return make_dataset([[0.0], [1.0]], [1, -1])


def separated_quad():
    return make_dataset([[0.0], [0.1], [5.0], [5.1]], [1, 1, -1, -1])


# Inputs that are not a 0/1 mask of 3 bits; every mask entry point rejects them.
BAD_MASKS = [
    [0, 2, 1],
    [1, 0, -1],
    [0.5, 1, 0],
    [1.7, 0, 0],
    [1, 0, float("nan")],
    np.array([1, 0, 2], dtype=np.uint8),
    np.array([1, 0, 256], dtype=np.int64),
    ["1", "0", "1"],
    [1 + 0j, 0, 1],
    np.array([1, 0, 1], dtype=object),
    [1, 0],
    [1, 0, 1, 1],
    [[1, 0, 1]],
    1,
]


class TestMaskHelpers:
    def test_popcount(self):
        assert popcount([1, 0, 1, 1]) == 3

    def test_hex_roundtrip_examples(self):
        mask = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        text = mask_to_hex(mask)
        assert text == "0d"
        assert np.array_equal(hex_to_mask(text, 5), mask)
        assert np.array_equal(hex_to_mask(" 0X0D ", 5), mask)
        # int(text, 16) reads the first three as 0x11, 0x10 and 0x0d.
        for bad in ("1_1", "\u0661\u0660", "+d", "", "0x"):
            with pytest.raises(ValueError, match="is not a hex mask"):
                hex_to_mask(bad, 5)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_hex_roundtrip_property(self, bits):
        mask = np.array(bits, dtype=np.uint8)
        assert np.array_equal(hex_to_mask(mask_to_hex(mask), len(bits)), mask)

    def test_int_roundtrip(self):
        assert mask_to_int([0, 1, 1]) == 6
        assert int_to_mask(6, 3).tolist() == [0, 1, 1]
        with pytest.raises(ValueError, match="fit"):
            int_to_mask(8, 3)

    def test_names(self):
        names = ("a", "b", "c")
        assert mask_names([1, 0, 1], names) == ["a", "c"]
        assert mask_from_names(["c", "a"], names).tolist() == [1, 0, 1]
        with pytest.raises(ValueError, match="unknown feature"):
            mask_from_names(["z"], names)

    def test_as_mask_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            as_mask([0, 2, 1])
        with pytest.raises(ValueError, match="bits"):
            as_mask([0, 1], n_features=3)
        with pytest.raises(ValueError, match="0 or 1"):
            as_mask(["1", "0", "1"])
        with pytest.raises(ValueError, match="1-dimensional"):
            as_mask([[1, 0, 1]])
        with pytest.raises(ValueError, match="bits"):
            as_mask([[1, 0], [0, 1]], n_features=3, ndim=2)
        with pytest.raises(ValueError, match="bits"):
            as_mask(np.ones((2, 4), dtype=np.uint8), n_features=3, ndim=2)
        for bad in BAD_MASKS:
            with pytest.raises(ValueError):
                as_mask(bad, n_features=3)

    def test_as_mask_output(self):
        stack = np.array([[1, 0, 1, 1], [0, 1, 0, 0]], dtype=np.int64)[:, ::2]
        out = as_mask(stack, n_features=2, ndim=2)
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        assert out.tolist() == [[1, 1], [0, 0]]
        for good in ([True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], np.uint8)):
            assert as_mask(good, n_features=3).tolist() == [1, 0, 1]

    @pytest.mark.parametrize("bad", BAD_MASKS)
    def test_engine_and_cache_reject_bad_masks(self, bad):
        ds = make_dataset([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]], [0, 1, 1])
        with pytest.raises(ValueError):
            CriterionEngine(ds, N1).evaluate(bad)
        cache = FitnessCache(ds, N1)
        with pytest.raises(ValueError):
            cache(bad)
        with pytest.raises(ValueError):
            cache.batch([bad])
        assert cache.evaluations == 0


class TestGaussianKernel:
    def test_identity(self):
        assert gaussian_kernel([1.0, 2.0], [1.0, 2.0], [1, 1]) == 1.0

    def test_hand_values(self):
        x, y = [0.0, 0.0], [1.0, 1.0]
        on = gaussian_kernel(x, y, [1, 1], KernelConfig(per_feature_normalization=True))
        off = gaussian_kernel(x, y, [1, 1], KernelConfig(per_feature_normalization=False))
        assert abs(on - 0.367879) < 1e-6
        assert abs(off - 0.135335) < 1e-6

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty mask"):
            gaussian_kernel([0.0], [1.0], [0])

    def test_widths_must_agree(self):
        with pytest.raises(ValueError, match="bits"):
            gaussian_kernel([0, 1, 2], [0, 1, 9], [1, 1])
        with pytest.raises(ValueError, match="one width"):
            gaussian_kernel([0, 1, 2], [0, 1], [1, 1, 1])

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=5),
        st.lists(st.floats(-50, 50), min_size=2, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_bounded(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = xs[:n], ys[:n]
        mask = [1] * n
        k_xy = gaussian_kernel(x, y, mask)
        k_yx = gaussian_kernel(y, x, mask)
        assert k_xy == k_yx
        assert 0.0 <= k_xy <= 1.0


class TestApproxMemberships:
    def test_coincident_opposite_sample(self):
        ds = coincident_pair()
        _, lower_theta, _, _ = approx_memberships(0, 1, ds, [1], N1)
        assert lower_theta == 0.0

    def test_upper_t_includes_self(self):
        ds = unit_gap_pair()
        _, _, upper_t, _ = approx_memberships(0, 1, ds, [1], N1)
        assert upper_t == 1.0

    def test_hand_lower_theta(self):
        ds = unit_gap_pair()  # squared distance 1 equals delta_eff
        _, lower_theta, _, _ = approx_memberships(0, 1, ds, [1], N1)
        assert abs(lower_theta - math.sqrt(1.0 - math.exp(-2.0))) < 1e-12
        assert abs(lower_theta - 0.929874) < 1e-6

    def test_missing_class(self):
        ds = unit_gap_pair()
        with pytest.raises(ValueError, match="empty"):
            approx_memberships(0, 7, ds, [1], N1)

    def test_outputs_bounded(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.normal(size=(12, 3)), rng.integers(0, 2, 12))
        for i in range(ds.n_samples):
            for d in (0, 1):
                vals = approx_memberships(i, d, ds, [1, 1, 0], N1)
                assert all(0.0 <= v <= 1.0 for v in vals)


class TestHandValues:
    def test_coincident_pair(self):
        v = gc(coincident_pair(), [1], N1)
        assert v.g_gamma == 0.0
        assert v.g_omega == -1.0
        assert v.gc == -0.5

    def test_unit_gap(self):
        ds = unit_gap_pair()
        gamma = g_gamma(ds, [1], N1)
        omega = g_omega(ds, [1], N1)
        value = gc(ds, [1], N1)
        assert abs(gamma - 0.929874) < 1e-6
        assert abs(omega - 0.859747) < 1e-6
        assert abs(value.gc - 0.894811) < 1e-6
        assert value.gc == (value.g_gamma + value.g_omega) / 2.0

    def test_separated_quad(self):
        v = gc(separated_quad(), [1], N1)
        assert abs(v.g_gamma - 1.0) < 1e-9
        assert abs(v.g_omega - 1.0) < 1e-9
        assert abs(v.gc - 1.0) < 1e-9


class TestReferenceEquivalence:
    def test_small_instances_match_reference(self):
        rng = np.random.default_rng(20260819)
        for _ in range(60):
            samples, labels, selected, delta, norm, n_k = random_grid_case(rng)
            ds = make_dataset(samples, labels)
            cfg = KernelConfig(delta=delta, per_feature_normalization=norm, n_k=n_k)
            mask = np.zeros(ds.n_features, dtype=np.uint8)
            mask[selected] = 1
            ref = reference_criterion(samples, labels, selected, delta, norm, n_k)
            got = gc(ds, mask, cfg)
            assert abs(got.g_gamma - ref[0]) <= 1e-12
            assert abs(got.g_omega - ref[1]) <= 1e-12
            assert abs(got.gc - ref[2]) <= 1e-12

    def test_omega_is_twice_gamma_minus_one(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            nf = int(rng.integers(1, 5))
            ds = make_dataset(rng.normal(size=(n, nf)),
                              [0, 1] + rng.integers(0, 2, n - 2).tolist())
            v = gc(ds, [1] * nf, KernelConfig(n_k=int(rng.integers(1, 4))))
            assert abs(v.g_omega - (2.0 * v.g_gamma - 1.0)) <= 1e-12


def _edge_case(name):
    """Small datasets on a 0.1 grid (full of distance ties) for the edge inputs."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "two-samples":
        return make_dataset(rng.integers(-3, 4, size=(2, 9)) / 10.0, [0, 1])
    n_classes = {"grid-2": 2, "grid-4": 4, "wide-2": 2}.get(name, 3)
    n_samples = 48 if name == "wide-2" else 30
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    samples = rng.integers(-3, 4, size=(n_samples, 9)) / 10.0
    if name == "single-sample":
        labels = np.array([0, 1] + [2] * 28)
    elif name == "duplicates":
        twins = np.flatnonzero(labels == 0)[:4]
        others = np.flatnonzero(labels != 0)[:4]
        samples[others] = samples[twins]
    elif name == "constant-columns":
        samples[:, [0, 4, 8]] = 0.7
    elif name == "grid-4":
        labels[labels == 3] = 2
        labels[:2] = 3  # class 3 keeps 2 samples, fewer than n_k
    return make_dataset(samples, labels)


# wide-2 has two classes of 24, so at n_k=1 a mask's 576 distances keep 48
# neighbours, few enough that a tail batch holds several chunks.
EDGE_CASES = ["grid-2", "grid-3", "grid-4", "single-sample", "duplicates",
              "constant-columns", "two-samples", "wide-2"]


class TestMatchesDenseEngine:
    """The class-pair engine equals the dense reference bit for bit, on the
    stored path and on the per-call path, through evaluate and through
    evaluate_many. evaluate_many runs with a chunk budget below one width
    (one mask per chunk, no checkpoint kept), with one mask per chunk, 10
    (the last chunk of 511 masks holds one) or all of them. On wide-2 at
    n_k=1 a tail batch holds 2 or 3 chunks and the last one is short. It
    scores the stack in order, shuffled with some rows repeated, and
    reversed, and each row must get its own score.
    n_k=5 exceeds the smaller classes, and every mask of 9 features is
    scored, so sums over 8 and 9 selected columns are covered too."""

    @pytest.mark.parametrize("stored", [True, False], ids=["store", "per-call"])
    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_every_mask(self, name, stored, monkeypatch):
        ds = _edge_case(name)
        if not stored:
            monkeypatch.setattr(criterion, "_STORE_BUDGET", 0)
        masks = np.array([int_to_mask(v, ds.n_features) for v in range(1, 1 << ds.n_features)])
        rng = np.random.default_rng(3)
        everything = np.arange(len(masks))
        repeats = rng.permutation(np.concatenate([everything, rng.choice(everything, 40)]))
        orders = [everything, repeats, everything[::-1]]
        for cfg in (KernelConfig(n_k=1), KernelConfig(n_k=5, per_feature_normalization=False)):
            engine = CriterionEngine(ds, cfg)
            assert (engine._store is not None) == stored
            expect = [dense_evaluate(ds, mask, cfg) for mask in masks]
            for mask, want in zip(masks, expect):
                got = engine.evaluate(mask)
                assert (got.g_gamma, got.g_omega, got.gc) == want
            want = np.array([gc for _, _, gc in expect])
            budgets = [per_chunk * engine._width for per_chunk in (1, 10, len(masks))]
            for budget in [engine._width - 1] + budgets:
                monkeypatch.setattr(criterion, "_MASK_CHUNK_BUDGET", budget)
                for rows in orders:
                    got = engine.evaluate_many(masks[rows])
                    assert got.dtype == np.float64
                    assert got.tolist() == want[rows].tolist()


class TestEvaluateMany:
    def test_stack_checks(self):
        ds = _edge_case("grid-3")
        engine = CriterionEngine(ds, KernelConfig())
        empty = engine.evaluate_many(np.zeros((0, ds.n_features), dtype=np.uint8))
        assert empty.shape == (0,) and empty.dtype == np.float64
        ones = np.ones((2, ds.n_features), dtype=np.uint8)
        for bad, match in ((ones[0], "2-dimensional"),
                           (ones[:, 1:], "bits"),
                           (2 * ones, "0 or 1"),
                           (np.vstack([ones, np.zeros_like(ones[:1])]), "empty mask")):
            with pytest.raises(ValueError, match=match):
                engine.evaluate_many(bad)


class TestInvariances:
    def test_sample_permutation(self):
        rng = np.random.default_rng(17)
        ds = make_dataset(rng.normal(size=(14, 3)), rng.integers(0, 2, 14))
        base = gc(ds, [1, 0, 1], N1)
        perm = rng.permutation(14)
        shuffled = make_dataset(ds.samples[perm], ds.labels[perm])
        moved = gc(shuffled, [1, 0, 1], N1)
        assert abs(base.gc - moved.gc) <= 1e-12

    def test_feature_permutation_with_mask(self):
        rng = np.random.default_rng(23)
        ds = make_dataset(rng.normal(size=(10, 4)), rng.integers(0, 2, 10))
        mask = np.array([1, 1, 0, 1], dtype=np.uint8)
        perm = np.array([2, 0, 3, 1])
        permuted = make_dataset(ds.samples[:, perm], ds.labels)
        base = gc(ds, mask, N1)
        moved = gc(permuted, mask[perm], N1)
        assert abs(base.gc - moved.gc) <= 1e-12

    def test_direct_distance_path_matches_stack(self, monkeypatch):
        rng = np.random.default_rng(31)
        ds = make_dataset(rng.normal(size=(30, 5)), rng.integers(0, 2, 30))
        cfg = KernelConfig(n_k=3)
        stacked = CriterionEngine(ds, cfg)
        monkeypatch.setattr(criterion, "_STORE_BUDGET", 0)
        direct = CriterionEngine(ds, cfg)
        assert stacked._store is not None and direct._store is None
        for _ in range(10):
            mask = rng.integers(0, 2, 5).astype(np.uint8)
            if not mask.any():
                mask[0] = 1
            assert stacked.evaluate(mask) == direct.evaluate(mask)

    def test_one_column_order_distance_rule(self, monkeypatch):
        # Every squared distance adds its selected columns' squared
        # differences in column order from zero, as reference_criterion does.
        # numpy's pairwise sum along a contiguous axis groups 8 or more terms
        # differently, so the direct check feeds C-ordered rows.
        rng = np.random.default_rng(5)
        a = rng.normal(size=(20, 14))
        b = rng.normal(size=(15, 14))
        mask = np.ones(14, dtype=np.uint8)
        mask[[3, 9]] = 0
        sel = mask.nonzero()[0].tolist()

        def column_order(x, y):
            total = 0.0
            for f in sel:
                diff = x[f] - y[f]
                total += diff * diff
            return total

        expected = np.array([[column_order(x, y) for y in b.tolist()] for x in a.tolist()])
        rows_a, rows_b = np.ascontiguousarray(a[:, sel]), np.ascontiguousarray(b[:, sel])
        assert np.array_equal(_column_sq_dists(rows_a, rows_b), expected)

        seen = []
        argsort = np.argsort

        def spy(values, *args, **kwargs):
            seen.append(np.array(values))
            return argsort(values, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        train = make_dataset(b, np.arange(15) % 2)
        test = make_dataset(a, np.arange(20) % 2)
        knn_predict(train, test, mask)
        monkeypatch.undo()
        assert any(v.shape == expected.shape and np.array_equal(v, expected) for v in seen)

        cfg = KernelConfig(delta=0.7)
        for x, y, d2 in zip(a, b, np.diagonal(expected)):
            want = float(np.exp(-d2 / (cfg.delta * len(sel))))
            assert gaussian_kernel(x, y, mask, cfg) == want

    def test_monotone_in_separation(self):
        offsets = np.linspace(-0.1, 0.1, 4)
        previous = -np.inf
        for s in np.arange(0.0, 10.5, 0.5):
            col = np.concatenate([s / 2.0 + offsets, -s / 2.0 - offsets])
            ds = make_dataset(col.reshape(-1, 1), [1] * 4 + [-1] * 4)
            value = gc(ds, [1], KernelConfig(n_k=2)).gc
            assert value >= previous - 1e-12
            previous = value


@st.composite
def random_problem(draw):
    n = draw(st.integers(4, 16))
    nf = draw(st.integers(1, 4))
    samples = draw(
        st.lists(
            st.lists(st.floats(-20, 20), min_size=nf, max_size=nf),
            min_size=n, max_size=n,
        )
    )
    labels = [0, 1] + draw(st.lists(st.integers(0, 2), min_size=n - 2, max_size=n - 2))
    mask_bits = draw(st.lists(st.integers(0, 1), min_size=nf, max_size=nf))
    if not any(mask_bits):
        mask_bits[0] = 1
    delta = draw(st.floats(0.05, 8.0))
    n_k = draw(st.integers(1, 4))
    norm = draw(st.booleans())
    return samples, labels, mask_bits, KernelConfig(delta=delta, per_feature_normalization=norm, n_k=n_k)


class TestBounds:
    @given(random_problem())
    @settings(max_examples=60, deadline=None)
    def test_bounds_property(self, problem):
        samples, labels, mask, cfg = problem
        v = gc(make_dataset(samples, labels), mask, cfg)
        assert 0.0 <= v.g_gamma <= 1.0
        assert -1.0 <= v.g_omega <= 1.0
        assert -0.5 <= v.gc <= 1.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty mask"):
            gc(unit_gap_pair(), [0], N1)

    def test_kernel_config_validation(self):
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                KernelConfig(delta=bad)
        with pytest.raises(ValueError, match="n_k"):
            KernelConfig(n_k=0)
        # n_k = 1.5 or True used to construct, then fail inside numpy
        for bad in (1.5, 3.0, True):
            with pytest.raises(ValueError, match=f"n_k must be an integer, got {bad!r}"):
                KernelConfig(n_k=bad)
        assert type(KernelConfig(n_k=np.int64(2)).n_k) is int
