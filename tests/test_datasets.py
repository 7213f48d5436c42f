import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_dataset, standardize
from frsel import (
    BaselineConfig,
    Dataset,
    KernelConfig,
    MAConfig,
    SynthSpec,
    catalog,
    load_csv,
    save_csv,
    split,
    synth_clusters,
    zscore_apply,
    zscore_fit,
)
from frsel.datasets import informative_indices, sorted_distinct


class TestDataset:
    def test_basic_construction(self):
        ds = make_dataset([[0.0, 1.0], [2.0, 3.0]], [1, -1])
        assert ds.n_samples == 2
        assert ds.n_features == 2
        assert ds.class_ids.tolist() == [-1, 1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_dataset([[0.0], [np.nan]], [1, -1])

    def test_rejects_zero_feature_columns(self):
        with pytest.raises(ValueError, match="no feature columns"):
            Dataset(samples=np.empty((2, 0)), labels=[1, -1], feature_names=())

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            make_dataset([[0.0], [1.0]], [1, -1, 1])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(samples=[[0.0, 1.0], [2.0, 3.0]], labels=[1, -1],
                    feature_names=("a", "a"))

    def test_rejects_fractional_labels(self):
        # an int64 cast would truncate them to [0, 1, 1]
        with pytest.raises(ValueError, match=r"label 0\.5 at row 0 is not a whole number"):
            Dataset(samples=[[0.0], [1.0], [2.0]], labels=[0.5, 1.7, 1.2], feature_names=["a"])
        for bad in (1.2, np.nan, np.inf):
            with pytest.raises(ValueError, match="at row 2 is not a whole number"):
                make_dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, bad])
        ds = make_dataset([[0.0], [1.0], [2.0]], [1.0, -1.0, 1.0])
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [1, -1, 1]

    @pytest.mark.parametrize("labels", [
        [0, 2**63],
        np.array([0.0, 1e19]),
        [0, 2**64],
        [0, -2**63 - 1],
        np.array([0, 2**63], dtype=np.uint64),
    ], ids=["int-2^63", "float-1e19", "int-2^64", "int-below", "uint64"])
    def test_rejects_labels_outside_int64(self, labels):
        # the int64 cast used to wrap them to -2^63, or to raise a bare
        # OverflowError for 2^64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at row 1 is outside the int64 range"):
                Dataset(samples=[[0.0], [1.0]], labels=labels, feature_names=["a"])

    def test_int64_extremes_are_labels(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [2**63 - 1, -2**63, 2**63 - 1])
        assert ds.labels.tolist() == [2**63 - 1, -2**63, 2**63 - 1]
        assert ds.class_ids.tolist() == [-2**63, 2**63 - 1]

    def test_class_ids_computed_once_and_read_only(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [3, -1, 3, 0])
        assert ds.class_ids is ds.class_ids
        assert ds.class_ids.tolist() == [-1, 0, 3]
        with pytest.raises(ValueError):
            ds.class_ids[0] = 5

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            make_dataset([[0.0], [1.0]], [1, 1])

    def test_samples_are_immutable(self):
        ds = make_dataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(ValueError):
            ds.samples[0, 0] = 5.0


_DISTINCT_INPUTS = st.one_of(
    hnp.arrays(np.int64, st.integers(0, 40), elements=st.integers(-3, 3)),
    hnp.arrays(np.int64, st.integers(0, 40),
               elements=st.sampled_from([-2**63, -2**63 + 1, 0, 2**63 - 2, 2**63 - 1])),
    hnp.arrays(np.int64, st.integers(1, 40), elements=st.just(-7)),
    hnp.arrays(np.bool_, st.integers(0, 40)),
    hnp.arrays(np.float64, st.integers(0, 40),
               elements=st.floats(allow_nan=False, allow_subnormal=False)),
    hnp.arrays(np.float64, st.integers(0, 40),
               elements=st.sampled_from([-1.5, -0.0, 0.0, 2.0, np.inf, -np.inf])),
)


class TestSortedDistinct:
    @given(_DISTINCT_INPUTS)
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, values):
        got = sorted_distinct(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_leaves_its_input_alone(self):
        values = np.array([3, -1, 3, 0])
        assert sorted_distinct(values).tolist() == [-1, 0, 3]
        assert values.tolist() == [3, -1, 3, 0]


class TestZscore:
    def test_hand_column(self):
        ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
        out = standardize(ds)
        expected = [-1.224745, 0.0, 1.224745]
        assert np.allclose(out.samples[:, 0], expected, atol=1e-6)

    def test_constant_column_maps_to_zero(self):
        ds = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
        out = standardize(ds)
        assert (out.samples[:, 0] == 0.0).all()

    def test_apply_uses_fitted_params_not_own(self):
        train = make_dataset([[0.0], [2.0]], [0, 1])
        test = make_dataset([[10.0], [12.0]], [0, 1])
        params = zscore_fit(train)
        out = zscore_apply(test, params)
        # train mean 1, std 1: test values map to 9 and 11
        assert out.samples[:, 0].tolist() == [9.0, 11.0]

    def test_dimension_mismatch(self):
        train = make_dataset([[0.0, 1.0], [2.0, 3.0]], [0, 1])
        other = make_dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError, match="features"):
            zscore_apply(other, zscore_fit(train))

    def test_roundtrip_moments(self):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng.normal(3.0, 2.5, size=(40, 4)),
                          rng.integers(0, 2, size=40) * 2 - 1)
        out = standardize(ds)
        assert np.abs(out.samples.mean(axis=0)).max() < 1e-9
        assert np.abs(out.samples.std(axis=0) - 1.0).max() < 1e-9


class TestSplit:
    def test_reference_sizes(self):
        ds = standardize(synth_clusters(SynthSpec(samples_per_class=550), seed=1))
        train, test = split(ds, 0.66, seed=0)
        assert (train.n_samples, test.n_samples) == (726, 374)
        big = synth_clusters(SynthSpec(samples_per_class=1000), seed=1)
        train2, _ = split(big, 0.66, seed=0)
        assert train2.n_samples == 1320

    def test_deterministic(self):
        ds = synth_clusters(SynthSpec(n_informative=2, n_noise=2, samples_per_class=20), seed=5)
        a_train, a_test = split(ds, 0.66, seed=3)
        b_train, b_test = split(ds, 0.66, seed=3)
        assert np.array_equal(a_train.samples, b_train.samples)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_preserves_label_multiset(self):
        ds = synth_clusters(SynthSpec(n_informative=1, n_noise=1, samples_per_class=15), seed=2)
        train, test = split(ds, 0.7, seed=9)
        merged = sorted(train.labels.tolist() + test.labels.tolist())
        assert merged == sorted(ds.labels.tolist())

    def test_both_sides_keep_every_class(self):
        ds = synth_clusters(SynthSpec(n_informative=1, n_noise=0, samples_per_class=10), seed=0)
        for seed in range(5):
            train, test = split(ds, 0.5, seed=seed)
            assert set(train.labels.tolist()) == {-1, 1}
            assert set(test.labels.tolist()) == {-1, 1}

    def test_impossible_split_errors(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="every class"):
            split(ds, 0.25, seed=0)

    def test_fraction_bounds(self):
        ds = make_dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError, match="train_fraction"):
            split(ds, 1.0, seed=0)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        ds = synth_clusters(SynthSpec(n_informative=2, n_noise=1, samples_per_class=6), seed=4)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n0.5,1.5,1\n1.0,2.0,-1\n")
        ds = load_csv(path)
        assert ds.n_features == 2
        assert ds.n_samples == 2
        assert ds.class_ids.tolist() == [-1, 1]

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match='"label"'):
            load_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1.0,1\n2.0\n3.0,-1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_text_cell_reports_position(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n1.0,oops,1\n2.0,3.0,-1\n")
        with pytest.raises(ValueError, match="'b'.*'oops'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_position(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n1.0,2.0,1\n3.0,{cell},-1\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line 3, column 'b': {cell!r} is not finite"

    @pytest.mark.parametrize("column, cell, message", [
        ("b", "1_000", "is not numeric"),
        ("b", "\uff13", "is not numeric"),  # full-width digit three
        ("label", "1_0", "is not an integer label"),
        ("label", "\u0661", "is not an integer label"),  # Arabic-Indic digit one
    ])
    def test_separator_or_non_ascii_digit_rejected(self, tmp_path, column, cell, message):
        row = {"a": "3.0", "b": "4.0", "label": "-1"} | {column: cell}
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n1.0,2.0,1\n{row['a']},{row['b']},{row['label']}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line 3, column {column!r}: {cell!r} {message}"

    def test_label_only_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label\n1\n-1\n")
        with pytest.raises(ValueError, match="no feature columns"):
            load_csv(path)

    def test_single_class_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1.0,1\n2.0,1\n")
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            load_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1.0,up\n2.0,down\n")
        with pytest.raises(ValueError, match="integer label"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["9223372036854775808", "-9223372036854775809"])
    def test_label_outside_int64_reports_line(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f"a,label\n1.0,0\n2.0,{cell}\n")
        with pytest.raises(ValueError, match=f"line 3, column 'label': '{cell}' is outside the int64 range"):
            load_csv(path)

    @pytest.mark.parametrize("text", [
        "label,a,b\n1,0.5,1.5\n-1,1.0,2.0\n",
        "a,b,label\n0.5,1.5,1\n1.0,2.0,-1\n",
    ], ids=["label-first", "label-last"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # a leading BOM used to hide a first "label" column, or to become
        # part of the first feature's name
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = load_csv(plain), load_csv(marked)
        assert got.feature_names == want.feature_names == ("a", "b")
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(got.labels, want.labels)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)


class TestSynth:
    def test_benchmark_shape(self):
        ds = synth_clusters(SynthSpec(), seed=0)
        assert ds.n_samples == 200
        assert ds.n_features == 10
        assert len(informative_indices(ds)) == 3

    def test_separable_construction(self):
        spec = SynthSpec(n_informative=1, n_noise=0, samples_per_class=10,
                         cluster_separation=10.0, noise_std=0.1)
        ds = synth_clusters(spec, seed=7)
        col = ds.samples[:, 0]
        assert col[ds.labels == -1].max() < col[ds.labels == 1].min()

    def test_deterministic(self):
        a = synth_clusters(SynthSpec(), seed=3)
        b = synth_clusters(SynthSpec(), seed=3)
        assert np.array_equal(a.samples, b.samples)
        assert a.feature_names == b.feature_names

    def test_zero_separation_means_close(self):
        spec = SynthSpec(n_informative=2, n_noise=2, samples_per_class=400,
                         cluster_separation=0.0, noise_std=1.0)
        ds = synth_clusters(spec, seed=12)
        limit = 5.0 * spec.noise_std / np.sqrt(spec.samples_per_class)
        for j in range(ds.n_features):
            col = ds.samples[:, j]
            gap = abs(col[ds.labels == 1].mean() - col[ds.labels == -1].mean())
            assert gap <= limit

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_informative"):
            SynthSpec(n_informative=0)
        with pytest.raises(ValueError, match="samples_per_class"):
            SynthSpec(samples_per_class=0)
        for name in ("cluster_separation", "noise_std"):
            for bad in (-1.0, float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
                    SynthSpec(**{name: bad})
        # n_noise = 2.5 used to construct, then fail inside numpy; True
        # used to give one informative column
        for name in ("n_informative", "n_noise", "samples_per_class"):
            for bad in (2.5, 4.0, True):
                with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
                    SynthSpec(**{name: bad})

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_any_seed_yields_valid_dataset(self, seed):
        ds = synth_clusters(
            SynthSpec(n_informative=1, n_noise=2, samples_per_class=5), seed=seed
        )
        assert ds.n_samples == 10
        assert set(ds.labels.tolist()) == {-1, 1}


class TestCatalog:
    def test_count_and_order(self):
        assert list(catalog()) == [f"Tz{i}" for i in range(1, 34)]

    def test_first_and_last_descriptions(self):
        cat = catalog()
        assert cat["Tz1"] == (
            "Mean value of all the mechanical power before the fault incipient time"
        )
        assert cat["Tz33"] == (
            "Rotor angular velocity of the machine with the biggest difference "
            "relative to the centre of inertia at t_{cl+9c}"
        )

    def test_unknown_code(self):
        with pytest.raises(KeyError):
            catalog()["Tz99"]


# Every float field of the four config dataclasses.
FLOAT_FIELDS = [(KernelConfig, "delta")] + [(MAConfig, k) for k in (
    "f_min", "f_max", "cr_min", "cr_max", "fitness_stop")] + [
    (BaselineConfig, "fitness_stop"), (SynthSpec, "cluster_separation"),
    (SynthSpec, "noise_std")]


class TestConfigFieldTypes:
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
    def test_float_fields(self, cls, name):
        # delta=True used to be stored as True, delta="2" to raise TypeError
        for bad in (True, np.False_, "2", None, 1j):
            with pytest.raises(ValueError, match=f"{name} must be a real number, got {bad!r}"):
                cls(**{name: bad})
        default = getattr(cls(), name)
        for good in (np.float64(default), Fraction(default)):
            value = getattr(cls(**{name: good}), name)
            assert type(value) is float and value == default

    def test_whole_number_in_float_field_becomes_float(self):
        assert type(KernelConfig(delta=2).delta) is float
        assert type(SynthSpec(cluster_separation=3).cluster_separation) is float
        with pytest.raises(ValueError, match="delta is too large for a float"):
            KernelConfig(delta=10**400)

    def test_bool_field(self):
        # per_feature_normalization="no" used to normalize as if True
        for bad in ("no", "False", 0, 1, 1.0, None):
            with pytest.raises(ValueError, match=f"normalization must be a bool, got {bad!r}"):
                KernelConfig(per_feature_normalization=bad)
        for good in (np.True_, np.False_, False):
            value = KernelConfig(per_feature_normalization=good).per_feature_normalization
            assert type(value) is bool and value == good
