import json

import numpy as np
import pytest

from conftest import make_dataset, standardize
from frsel import (
    SynthSpec,
    auc,
    eta,
    evaluate_subset,
    kappa,
    split,
    synth_clusters,
)
from frsel.datasets import informative_indices
from frsel.evaluation import (
    ConfusionMatrix,
    accuracy,
    confusion,
    knn_predict,
    report_to_dict,
)


def two_cluster_train():
    samples = [[0.0], [0.1], [0.2], [5.0], [5.1], [5.2]]
    return make_dataset(samples, [0, 0, 0, 1, 1, 1])


class TestKnnPredict:
    def test_clear_majority(self):
        train = two_cluster_train()
        test = make_dataset([[0.05], [5.05]], [0, 1])
        labels, scores = knn_predict(train, test, [1], k=3)
        assert labels.tolist() == [0, 1]
        assert scores.tolist() == [0.0, 1.0]

    def test_vote_tie_takes_larger_id(self):
        train = make_dataset([[0.0], [1.0]], [0, 1])
        test = make_dataset([[0.5], [0.5]], [0, 1])
        labels, scores = knn_predict(train, test, [1], k=2)
        assert labels.tolist() == [1, 1]
        assert scores.tolist() == [0.5, 0.5]

    def test_distance_tie_takes_smaller_index(self):
        train = make_dataset([[0.0], [0.0]], [0, 1])
        test = make_dataset([[0.0], [3.0]], [0, 1])
        labels, _ = knn_predict(train, test, [1], k=1)
        assert labels.tolist() == [0, 0]

    def test_k_capped_at_train_size(self):
        train = make_dataset([[0.0], [5.0]], [0, 1])
        test = make_dataset([[0.1], [4.9]], [0, 1])
        labels, scores = knn_predict(train, test, [1], k=5)
        # both rows become neighbors, the 1-1 vote tie goes to class 1
        assert labels.tolist() == [1, 1]
        assert scores.tolist() == [0.5, 0.5]

    def test_binary_score_is_larger_id_share(self):
        train = make_dataset([[0.0], [0.1], [9.0], [9.1]], [2, 2, 7, 7])
        test = make_dataset([[9.05], [0.05]], [7, 2])
        labels, scores = knn_predict(train, test, [1], k=2)
        assert labels.tolist() == [7, 2]
        assert scores.tolist() == [1.0, 0.0]

    def test_multiclass_share_matrix(self):
        train = make_dataset(
            [[0.0, 0.0], [0.2, 0.0], [5.0, 0.0], [5.2, 0.0], [0.0, 5.0], [0.2, 5.0]],
            [0, 0, 1, 1, 2, 2],
        )
        test = make_dataset([[0.1, 0.0], [5.1, 0.0], [0.1, 5.0]], [0, 1, 2])
        labels, scores = knn_predict(train, test, [1, 1], k=2)
        assert labels.tolist() == [0, 1, 2]
        assert scores.shape == (3, 3)
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert np.allclose(scores, np.eye(3))

    def test_mask_restricts_distance(self):
        # feature 0 separates the classes, feature 1 inverts the story;
        # predictions must follow the selected column only
        train = make_dataset([[0.0, 9.0], [9.0, 0.0]], [0, 1])
        test = make_dataset([[0.1, 0.1], [8.9, 8.9]], [0, 1])
        on_first, _ = knn_predict(train, test, [1, 0], k=1)
        on_second, _ = knn_predict(train, test, [0, 1], k=1)
        assert on_first.tolist() == [0, 1]
        assert on_second.tolist() == [1, 0]

    def test_bad_arguments(self):
        train = two_cluster_train()
        with pytest.raises(ValueError, match="k must be"):
            knn_predict(train, train, [1], k=0)
        with pytest.raises(ValueError, match="empty mask"):
            knn_predict(train, train, [0], k=1)


class TestConfusion:
    def test_tally(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1])
        assert cm.class_ids == (0, 1)
        assert cm.counts.tolist() == [[1, 1], [0, 2]]
        assert cm.total == 4

    def test_explicit_ids_keep_empty_classes(self):
        cm = confusion([0, 0], [0, 0], class_ids=[0, 1])
        assert cm.counts.tolist() == [[2, 0], [0, 0]]

    def test_id_outside_class_ids(self):
        # used to raise a bare KeyError: 2
        with pytest.raises(ValueError, match=r"class id 2 is not in class_ids \[0, 1\]"):
            confusion([0, 1], [1, 2], [0, 1])
        with pytest.raises(ValueError, match="class id 5 is not in"):
            confusion([5, 1], [1, 0], [0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            confusion([0, 1], [0])

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="square"):
            ConfusionMatrix((0, 1), [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="class_ids"):
            ConfusionMatrix((0,), [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionMatrix((0, 1), [[1, -1], [0, 1]])


class TestKappa:
    def test_hand_value(self):
        cm = ConfusionMatrix((0, 1), [[40, 10], [5, 45]])
        assert abs(kappa(cm) - 0.7) < 1e-12
        assert accuracy(cm) == 0.85

    def test_perfect_agreement(self):
        cm = ConfusionMatrix((0, 1), [[30, 0], [0, 20]])
        assert kappa(cm) == 1.0

    def test_chance_level_predictor(self):
        cm = ConfusionMatrix((0, 1), [[25, 25], [25, 25]])
        assert kappa(cm) == 0.0

    def test_degenerate_single_cell(self):
        cm = ConfusionMatrix((0, 1), [[10, 0], [0, 0]])
        assert kappa(cm) == 0.0

    def test_empty_matrix(self):
        cm = ConfusionMatrix((0, 1), [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="empty"):
            kappa(cm)
        with pytest.raises(ValueError, match="empty"):
            accuracy(cm)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_hand_value(self):
        assert auc([0.7, 0.1, 0.9, 0.5], [0, 0, 1, 1]) == 0.75

    def test_all_tied_scores(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            auc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(3.0 * scores + 2.0, labels) == base
        assert auc(np.exp(scores), labels) == base

    def test_label_swap_complements(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=40)  # continuous, ties have measure zero
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        assert abs(auc(scores, labels) + auc(scores, 1 - labels) - 1.0) < 1e-12


class TestEta:
    def test_published_style_rows(self):
        assert abs(eta(0.9813, 0.962, 0.9832) - 0.9755) < 5e-5
        assert abs(eta(0.9866, 0.973, 0.9869) - 0.9822) < 5e-5

    def test_plain_mean(self):
        assert eta(1.0, 1.0, 1.0) == 1.0
        assert eta(0.0, 0.0, 0.0) == 0.0


@pytest.fixture(scope="module")
def synth_split():
    spec = SynthSpec(n_informative=2, n_noise=4, samples_per_class=40,
                     cluster_separation=7.0)
    ds = synth_clusters(spec, seed=3)
    train, test = split(ds, 0.66, seed=0)
    return standardize(train), standardize(test)


class TestEvaluateSubset:
    def test_self_evaluation_is_perfect(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=(20, 3))
        ds = make_dataset(samples, [0] * 10 + [1] * 10)
        report = evaluate_subset(ds, ds, [1, 1, 1], k=1)
        assert report.a == 1.0
        assert report.kappa == 1.0
        assert report.auc == 1.0
        assert report.eta == 1.0
        assert report.auc_one_vs_rest is False

    def test_informative_beats_noise(self, synth_split):
        train, test = synth_split
        inf = informative_indices(train)
        inf_mask = np.zeros(train.n_features, dtype=np.uint8)
        inf_mask[inf] = 1
        noise_mask = 1 - inf_mask
        good = evaluate_subset(train, test, inf_mask)
        bad = evaluate_subset(train, test, noise_mask)
        assert good.eta > 0.95
        assert good.eta > bad.eta

    def test_eta_consistency_and_dimension(self, synth_split):
        train, test = synth_split
        report = evaluate_subset(train, test, [1, 0, 1, 1, 0, 0])
        assert abs(report.eta - eta(report.a, report.kappa, report.auc)) < 1e-12
        assert report.dimension == 3
        assert report.confusion.total == test.n_samples

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        samples = np.vstack([c + 0.3 * rng.normal(size=(12, 2)) for c in centers])
        labels = np.repeat([0, 1, 2], 12)
        ds = make_dataset(samples, labels)
        report = evaluate_subset(ds, ds, [1, 1], k=3)
        assert report.auc_one_vs_rest is True
        assert report.auc > 0.99
        assert report.confusion.counts.shape == (3, 3)

    def test_test_only_class_rejected(self):
        train = two_cluster_train()
        test = make_dataset([[0.0], [5.0], [2.5]], [0, 1, 2])
        with pytest.raises(ValueError, match="training classes"):
            evaluate_subset(train, test, [1], k=1)


class TestSerialization:
    def test_report_dict_is_json_ready(self, synth_split):
        train, test = synth_split
        report = evaluate_subset(train, test, [1] * train.n_features)
        payload = report_to_dict(report)
        assert set(payload) == {
            "a", "kappa", "auc", "eta", "dimension",
            "auc_one_vs_rest", "confusion",
        }
        decoded = json.loads(json.dumps(payload))
        assert decoded["dimension"] == train.n_features
        assert decoded["confusion"]["class_ids"] == [-1, 1]
        total = sum(sum(row) for row in decoded["confusion"]["counts"])
        assert total == test.n_samples
