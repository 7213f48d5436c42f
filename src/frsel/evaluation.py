"""Subset quality measured by a k-nearest-neighbor reference classifier.

Reports accuracy a, chance-corrected agreement kappa, ranking quality auc,
and their mean eta = (a + kappa + auc) / 3, with a always a fraction in
[0, 1]. The classifier is deliberately simple; it ranks feature subsets, it
does not chase benchmark accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .criterion import _column_sq_dists, _selected, popcount
from .datasets import Dataset


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts with rows = actual class, columns = predicted class.

    class_ids gives the row/column order (ascending).
    """

    class_ids: tuple[int, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        ids = tuple(int(c) for c in self.class_ids)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("counts must be square")
        if counts.shape[0] != len(ids):
            raise ValueError("class_ids length must match counts")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "class_ids", ids)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """All metrics for one evaluated mask.

    auc_one_vs_rest marks reports from datasets with more than two classes,
    where auc is the unweighted mean of one-vs-rest values.
    """

    a: float
    kappa: float
    auc: float
    eta: float
    confusion: ConfusionMatrix
    dimension: int
    auc_one_vs_rest: bool = False


def knn_predict(
    train: Dataset, test: Dataset, mask, k: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote over the k nearest training rows (selected features only).

    Returns (labels, scores). Vote ties go to the larger class id and
    neighbor distance ties to the smaller training index. For two classes,
    scores is the fraction of neighbors voting the larger class id; with
    more classes it is the full (n_test, n_classes) vote-share matrix with
    columns in ascending class order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    sel = _selected(mask, train.n_features)
    d2 = _column_sq_dists(test.samples[:, sel], train.samples[:, sel])
    k_eff = min(k, train.n_samples)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]
    neighbor_labels = train.labels[order]
    class_ids = train.class_ids
    votes = np.stack(
        [(neighbor_labels == c).sum(axis=1) for c in class_ids], axis=1
    )
    # Reversed argmax returns the LAST maximal column, i.e. the largest id.
    winner_col = votes.shape[1] - 1 - np.argmax(votes[:, ::-1], axis=1)
    labels = class_ids[winner_col]
    shares = votes.astype(np.float64) / k_eff
    if class_ids.size == 2:
        return labels, shares[:, 1]
    return labels, shares


def confusion(actual, predicted, class_ids=None) -> ConfusionMatrix:
    """Tally an actual-vs-predicted confusion matrix."""
    actual = np.asarray(actual)
    predicted = np.asarray(predicted)
    if actual.shape != predicted.shape:
        raise ValueError("actual and predicted lengths differ")
    if class_ids is None:
        class_ids = np.unique(np.concatenate([actual, predicted]))
    ids = [int(c) for c in class_ids]
    index = {c: i for i, c in enumerate(ids)}
    counts = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for a, p in zip(actual, predicted):
        counts[index[int(a)], index[int(p)]] += 1
    return ConfusionMatrix(class_ids=tuple(ids), counts=counts)


def accuracy(c: ConfusionMatrix) -> float:
    """Fraction of agreeing predictions."""
    if c.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(c.counts)) / c.total


def kappa(c: ConfusionMatrix) -> float:
    """Chance-corrected agreement; 0 for the all-one-cell degenerate case."""
    total = c.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    p_o = float(np.trace(c.counts)) / total
    rows = c.counts.sum(axis=1).astype(np.float64)
    cols = c.counts.sum(axis=0).astype(np.float64)
    p_e = float((rows * cols).sum()) / (total * total)
    if 1.0 - p_e == 0.0:
        return 0.0
    return (p_o - p_e) / (1.0 - p_e)


def auc(scores, labels) -> float:
    """Pair-counting area under the ROC curve for a binary task.

    The larger class id is the positive class; equal-score pairs count one
    half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    ids = np.unique(labels)
    if ids.size != 2:
        raise ValueError(f"auc needs exactly 2 classes present, got {ids.size}")
    pos = scores[labels == ids[1]]
    neg = scores[labels == ids[0]]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def eta(a: float, kappa_value: float, auc_value: float) -> float:
    """Composite indicator: the plain mean of the three metrics."""
    return (a + kappa_value + auc_value) / 3.0


def evaluate_subset(train: Dataset, test: Dataset, mask, k: int = 5) -> MetricsReport:
    """Train-on-train, score-on-test metrics for one mask."""
    predicted, scores = knn_predict(train, test, mask, k)
    ids = np.unique(np.concatenate([train.class_ids, test.labels, predicted]))
    cm = confusion(test.labels, predicted, ids)
    a = accuracy(cm)
    kap = kappa(cm)
    if ids.size == 2:
        r = auc(scores, test.labels)
        one_vs_rest = False
    else:
        # Mean of one-vs-rest values over classes present on both sides of
        # their split; the score column for a class is its vote share.
        if scores.ndim == 1:
            raise ValueError("test labels extend beyond the training classes")
        col = {int(c): j for j, c in enumerate(train.class_ids)}
        parts = []
        for c in ids:
            c = int(c)
            binary = (test.labels == c).astype(np.int64)
            if c not in col or binary.all() or not binary.any():
                continue
            parts.append(auc(scores[:, col[c]], binary))
        if not parts:
            raise ValueError("no class admits a one-vs-rest split")
        r = float(np.mean(parts))
        one_vs_rest = True
    return MetricsReport(
        a=a,
        kappa=kap,
        auc=r,
        eta=eta(a, kap, r),
        confusion=cm,
        dimension=popcount(mask),
        auc_one_vs_rest=one_vs_rest,
    )


def report_to_dict(report: MetricsReport) -> dict:
    """JSON-ready form of a MetricsReport: its fields in declaration order,
    then confusion, built from the ConfusionMatrix fields."""
    out = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "confusion"}
    out["confusion"] = {
        f.name: np.asarray(getattr(report.confusion, f.name)).tolist()
        for f in fields(report.confusion)
    }
    return out
