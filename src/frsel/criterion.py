"""Kernelized fuzzy-rough separability criterion for feature subsets.

A subset of features is scored on a labeled dataset by how certainly each
sample can be told apart from its nearest neighbors in every other class,
where similarity is a Gaussian kernel over the selected features only.

Two ingredients are combined:

  g_gamma  averages sqrt(1 - k^2) over each sample's n_k nearest neighbors
           drawn from every class other than its own. It is the mean
           lower-approximation mass of the cross-class neighborhood and lies
           in [0, 1]; 1 means every such neighbor is maximally dissimilar.

  g_omega  subtracts from that mass the upper-approximation mass
           (1 - sqrt(1 - k^2)) of the same neighbors, so it rewards margins
           that are certain rather than merely present. It lies in [-1, 1].

The final score gc = (g_gamma + g_omega) / 2 lies in [-0.5, 1]; a perfectly
mixed dataset scores -0.5 and a perfectly separated one approaches 1.

When a class holds fewer than n_k samples, the average for that
(sample, class) pair runs over the actual neighbor count, which keeps the
score inside its bounds on tiny datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset

# Above this many float64 elements, the per-feature squared-difference stack
# is not precomputed and distances are built per evaluation in row chunks.
_STACK_BUDGET = 8_000_000

# Row-chunk size (in float64 elements of the temporary) for distances built
# per call: the criterion's direct path and the k-NN harness.
_CHUNK_BUDGET = 2_000_000


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel width, width normalization mode and neighbor count.

    With per_feature_normalization on, the effective width is
    delta * popcount(mask), so the kernel sees the mean per-feature squared
    difference. On z-scored data that keeps cross-pair similarity at about
    exp(-2) regardless of subset size, removing the bias toward large
    subsets an unnormalized width would create.
    """

    delta: float = 1.0
    per_feature_normalization: bool = True
    n_k: int = 3

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.n_k < 1:
            raise ValueError("n_k must be at least 1")


@dataclass(frozen=True)
class CriterionValue:
    """The two partial scores and their mean gc."""

    g_gamma: float
    g_omega: float
    gc: float


@dataclass(frozen=True)
class NeighborSets:
    """Per sample: class id -> indices of its nearest samples of that class.

    Lists cover every class other than the sample's own; within a list,
    distances are non-decreasing and distance ties are broken by ascending
    sample index. A list is shorter than n_k when its class is smaller.
    """

    cross: tuple[dict[int, tuple[int, ...]], ...]


def as_mask(bits, n_features: int | None = None, ndim: int = 1) -> np.ndarray:
    """Coerce bits to a validated, C-contiguous uint8 mask array.

    The input must have `ndim` dimensions (2 for a stack of masks), a bool
    or numeric dtype and only 0 and 1 entries; with n_features given, its
    last axis must be that wide. A uint8 input is checked with one max().
    """
    mask = np.asarray(bits)
    if mask.ndim != ndim:
        raise ValueError(f"mask must be {ndim}-dimensional, got shape {mask.shape}")
    if n_features is not None and mask.shape[-1] != n_features:
        raise ValueError(f"mask has {mask.shape[-1]} bits, expected {n_features}")
    if mask.dtype == np.uint8:
        if mask.size and mask.max() > 1:
            raise ValueError("mask entries must be 0 or 1")
    elif mask.dtype.kind not in "biuf" or not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask entries must be 0 or 1")
    return np.ascontiguousarray(mask, dtype=np.uint8)


def _selected(mask, n_features: int | None) -> np.ndarray:
    """Column indices of a validated, non-empty mask."""
    sel = as_mask(mask, n_features).nonzero()[0]
    if sel.size == 0:
        raise ValueError("empty mask")
    return sel


def popcount(mask) -> int:
    """Number of selected features."""
    return int(np.count_nonzero(as_mask(mask)))


def mask_to_int(mask) -> int:
    """Pack a mask into an integer; feature j maps to bit j."""
    value = 0
    for j, b in enumerate(as_mask(mask)):
        value |= int(b) << j
    return value


def int_to_mask(value: int, n_features: int) -> np.ndarray:
    """Unpack an integer into a mask of the given width."""
    if value < 0 or value >= (1 << n_features):
        raise ValueError(f"{value} does not fit in {n_features} bits")
    return np.array([(value >> j) & 1 for j in range(n_features)], dtype=np.uint8)


def mask_to_hex(mask) -> str:
    """Lowercase hex form of a mask, zero-padded to ceil(N/4) digits."""
    mask = as_mask(mask)
    width = (mask.size + 3) // 4
    return f"{mask_to_int(mask):0{width}x}"


def hex_to_mask(text: str, n_features: int) -> np.ndarray:
    """Inverse of mask_to_hex for a known feature count."""
    cleaned = text.strip().lower().removeprefix("0x")
    try:
        value = int(cleaned, 16)
    except ValueError:
        raise ValueError(f"{text!r} is not a hex mask") from None
    return int_to_mask(value, n_features)


def mask_names(mask, feature_names) -> list[str]:
    """Names of the selected features, in column order."""
    mask = as_mask(mask, len(feature_names))
    return [name for name, bit in zip(feature_names, mask) if bit]


def mask_from_names(names, feature_names) -> np.ndarray:
    """Build a mask from a collection of feature names."""
    index = {name: j for j, name in enumerate(feature_names)}
    mask = np.zeros(len(feature_names), dtype=np.uint8)
    for name in names:
        if name not in index:
            raise ValueError(f"unknown feature name {name!r}")
        mask[index[name]] = 1
    return mask


def _effective_delta(cfg: KernelConfig, n_selected: int) -> float:
    return cfg.delta * n_selected if cfg.per_feature_normalization else cfg.delta


def gaussian_kernel(x, y, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Similarity exp(-d^2 / delta_eff) over the selected features."""
    sel = _selected(mask, None)
    diff = np.asarray(x, dtype=np.float64)[sel] - np.asarray(y, dtype=np.float64)[sel]
    d2 = float((diff * diff).sum())
    return float(np.exp(-d2 / _effective_delta(cfg, sel.size)))


def approx_memberships(
    i: int, class_id: int, ds: Dataset, mask, cfg: KernelConfig = KernelConfig()
) -> tuple[float, float, float, float]:
    """Lower and upper approximation degrees of sample i w.r.t. one class.

    Returns (lower_S, lower_theta, upper_T, upper_sigma): the min of 1 - k
    and of sqrt(1 - k^2) over samples outside the class, and the max of k
    and of 1 - sqrt(1 - k^2) over samples inside it. The sample itself
    counts as inside when it belongs to the class, never as outside.
    """
    sel = _selected(mask, ds.n_features)
    inside = ds.labels == class_id
    if not inside.any():
        raise ValueError(f"class {class_id} is empty")
    outside = ~inside
    if not outside.any():
        raise ValueError("no outside-class samples")
    diff = ds.samples[:, sel] - ds.samples[i, sel]
    d2 = (diff * diff).sum(axis=1)
    k = np.exp(-d2 / _effective_delta(cfg, sel.size))
    low = np.sqrt(np.maximum(0.0, 1.0 - k * k))
    lower_s = float((1.0 - k[outside]).min())
    lower_theta = float(low[outside].min())
    upper_t = float(k[inside].max())
    upper_sigma = float((1.0 - low[inside]).max())
    return lower_s, lower_theta, upper_t, upper_sigma


def _cross_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a and of b, in row chunks of a."""
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
    step = max(1, _CHUNK_BUDGET // max(1, b.shape[0] * max(1, a.shape[1])))
    for lo in range(0, a.shape[0], step):
        diff = a[lo:lo + step, None, :] - b[None, :, :]
        out[lo:lo + step] = (diff * diff).sum(axis=-1)
    return out


class CriterionEngine:
    """Evaluates the criterion for many masks over one fixed dataset.

    Construction caches per-feature squared differences when they fit the
    memory budget, so each mask evaluation reduces to a masked sum plus one
    neighbor scan. All methods are pure with respect to the engine state
    and safe to call from several threads at once.
    """

    def __init__(self, ds: Dataset, cfg: KernelConfig = KernelConfig()):
        self.ds = ds
        self.cfg = cfg
        self.class_ids = ds.class_ids
        self._members = {
            int(d): np.flatnonzero(ds.labels == d) for d in self.class_ids
        }
        self._outsiders = {
            int(d): np.flatnonzero(ds.labels != d) for d in self.class_ids
        }
        n, nf = ds.samples.shape
        self._stack: np.ndarray | None = None
        if nf * n * n <= _STACK_BUDGET:
            stack = np.empty((nf, n, n), dtype=np.float64)
            for j in range(nf):
                col = ds.samples[:, j]
                d = col[:, None] - col[None, :]
                stack[j] = d * d
            self._stack = stack

    def _sq_dists(self, sel: np.ndarray) -> np.ndarray:
        """Pairwise squared distances restricted to the selected columns."""
        if self._stack is not None:
            return self._stack[sel].sum(axis=0)
        x = self.ds.samples[:, sel]
        return _cross_sq_dists(x, x)

    def evaluate(self, mask) -> CriterionValue:
        """Score one non-empty mask."""
        sel = _selected(mask, self.ds.n_features)
        d2 = self._sq_dists(sel)
        delta_eff = _effective_delta(self.cfg, sel.size)
        gamma_total = 0.0
        omega_total = 0.0
        for d in self.class_ids:
            members = self._members[int(d)]
            outsiders = self._outsiders[int(d)]
            c = min(self.cfg.n_k, members.size)
            block = d2[np.ix_(outsiders, members)]
            order = np.argsort(block, axis=1, kind="stable")[:, :c]
            near = np.take_along_axis(block, order, axis=1)
            k = np.exp(-near / delta_eff)
            low = np.sqrt(np.maximum(0.0, 1.0 - k * k))
            gamma_total += float(low.mean(axis=1).sum())
            omega_total += float((2.0 * low - 1.0).mean(axis=1).sum())
        denom = (self.class_ids.size - 1) * self.ds.n_samples
        g_gamma = gamma_total / denom
        g_omega = omega_total / denom
        return CriterionValue(
            g_gamma=g_gamma, g_omega=g_omega, gc=(g_gamma + g_omega) / 2.0
        )

    def neighbors(self, mask) -> NeighborSets:
        """Cross-class nearest-neighbor index lists for every sample."""
        sel = _selected(mask, self.ds.n_features)
        d2 = self._sq_dists(sel)
        per_sample: list[dict[int, tuple[int, ...]]] = [
            {} for _ in range(self.ds.n_samples)
        ]
        for d in self.class_ids:
            members = self._members[int(d)]
            outsiders = self._outsiders[int(d)]
            c = min(self.cfg.n_k, members.size)
            block = d2[np.ix_(outsiders, members)]
            order = np.argsort(block, axis=1, kind="stable")[:, :c]
            chosen = members[order]
            for row, i in enumerate(outsiders):
                per_sample[int(i)][int(d)] = tuple(int(v) for v in chosen[row])
        return NeighborSets(cross=tuple(per_sample))


def find_neighbors(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> NeighborSets:
    """One-shot neighbor search; build a CriterionEngine to amortize."""
    return CriterionEngine(ds, cfg).neighbors(mask)


def g_gamma(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Mean cross-class lower-approximation mass, in [0, 1]."""
    return CriterionEngine(ds, cfg).evaluate(mask).g_gamma


def g_omega(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Lower minus upper approximation mass over the same neighbors, in [-1, 1]."""
    return CriterionEngine(ds, cfg).evaluate(mask).g_omega


def gc(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> CriterionValue:
    """Full criterion for one (dataset, mask) pair."""
    return CriterionEngine(ds, cfg).evaluate(mask)
