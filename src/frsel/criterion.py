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

from .datasets import Dataset, check_fields

# Above this many float64 elements, the class-pair distance store is not
# precomputed and each evaluation builds its cross-class distances itself.
_STORE_BUDGET = 8_000_000

# Masks are scored in chunks whose flat distance rows hold at most this many
# float64 elements (512 KB), and at least one mask. The sorted copy of one
# class-pair block is no larger. The same budget bounds a stack's prefix
# checkpoints (budget // width rows, fewer than the stack's, none when one
# row is wider) and, at a quarter, the neighbours of one tail batch (at
# least one chunk), so the kernel's buffers stay near 2 MB.
_MASK_CHUNK_BUDGET = 1 << 16


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
        check_fields(self)
        if not 0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")
        if self.n_k < 1:
            raise ValueError("n_k must be at least 1")


@dataclass(frozen=True)
class CriterionValue:
    """The two partial scores and their mean gc."""

    g_gamma: float
    g_omega: float
    gc: float


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
    """Inverse of mask_to_hex for a known width: hex digits after an optional 0x."""
    cleaned = text.strip().lower().removeprefix("0x")
    if not cleaned or not set(cleaned) <= set("0123456789abcdef"):
        raise ValueError(f"{text!r} is not a hex mask")
    return int_to_mask(int(cleaned, 16), n_features)


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


def _effective_delta(cfg: KernelConfig, n_selected):
    return cfg.delta * n_selected if cfg.per_feature_normalization else cfg.delta


def gaussian_kernel(x, y, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Similarity exp(-d^2 / delta_eff) over the selected features.

    x, y and the mask must be 1-D and of one width.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be 1-D of one width, got shapes {x.shape} and {y.shape}")
    sel = _selected(mask, x.size)
    d2 = float(_column_sq_dists(x[None, sel], y[None, sel])[0, 0])
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
    d2 = _column_sq_dists(ds.samples[:, sel], ds.samples[i:i + 1, sel])[:, 0]
    k = np.exp(-d2 / _effective_delta(cfg, sel.size))
    low = np.sqrt(np.maximum(0.0, 1.0 - k * k))
    lower_s = float((1.0 - k[outside]).min())
    lower_theta = float(low[outside].min())
    upper_t = float(k[inside].max())
    upper_sigma = float((1.0 - low[inside]).max())
    return lower_s, lower_theta, upper_t, upper_sigma


def _column_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(|a|, |b|) squared distances between the rows of a and of b: each
    column's squared differences added in column order (the bits of a sum
    from zero), through one temporary the size of the output. a and b need
    at least one column. Every squared distance in the package forms here."""
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    tmp = np.empty_like(out)
    for j in range(1, a.shape[1]):
        np.subtract.outer(a[:, j], b[:, j], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _shared_prefix(a: list[int], b: list[int]) -> int:
    """Length of the common prefix of two lists."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class CriterionEngine:
    """Evaluates the criterion for many masks over one fixed dataset.

    Only cross-class distances enter the score. They lie flat, one row-major
    (|a|, |b|) block per class pair a < b, read transposed for the reverse
    direction. Construction stores each feature's squared differences when
    N * sum(|a| * |b|) float64 elements fit the budget; otherwise every
    evaluation rebuilds the selected ones. Both add them in feature order,
    so both give the same bits. evaluate scores a one-row stack through the
    kernel of evaluate_many, which scores a stack chunk by chunk in
    lexicographic order, continuing exact partial sums from row to row, with
    the same arithmetic for a row in any chunk and at any place in the
    stack. All methods are pure with respect to the engine state and safe
    to call from several threads at once.
    """

    def __init__(self, ds: Dataset, cfg: KernelConfig = KernelConfig()):
        self.ds = ds
        self.cfg = cfg
        self.class_ids = ds.class_ids
        self._members = [np.flatnonzero(ds.labels == d) for d in self.class_ids]
        sizes = [m.size for m in self._members]
        self._pairs: list[tuple[int, int, slice]] = []
        self._width = 0
        for a in range(len(sizes)):
            for b in range(a + 1, len(sizes)):
                self._pairs.append((a, b, slice(self._width, self._width + sizes[a] * sizes[b])))
                self._width += sizes[a] * sizes[b]
        # Per class d: its outsider count, the neighbours kept per outsider,
        # and for each pair (a, b) that holds d, the rows of d's outsiders,
        # in sample order, that the other class fills.
        self._views = []
        for d, members in enumerate(self._members):
            outsiders = np.flatnonzero(ds.labels != self.class_ids[d])
            parts = []
            for a, b, flat in self._pairs:
                if d in (a, b):
                    rows = np.searchsorted(outsiders, self._members[b if d == a else a])
                    if rows[-1] - rows[0] == rows.size - 1:  # a run: fill it as a slice
                        rows = slice(rows[0], rows[-1] + 1)
                    parts.append((rows, flat, (sizes[a], sizes[b]), d == a))
            self._views.append((outsiders.size, min(cfg.n_k, members.size), parts))
        self._near_per_mask = sum(n_out * c for n_out, c, _ in self._views)
        self._store: np.ndarray | None = None
        if ds.n_features * self._width <= _STORE_BUDGET:
            self._store = np.empty((ds.n_features, self._width), dtype=np.float64)
            for j in range(ds.n_features):
                self._store[j] = self._feature_sq_diffs(j)

    def _feature_sq_diffs(self, j: int) -> np.ndarray:
        """Flat cross-class squared differences on column j."""
        col = self.ds.samples[:, j:j + 1]
        out = np.empty(self._width, dtype=np.float64)
        for a, b, flat in self._pairs:
            out[flat] = _column_sq_dists(col[self._members[a]], col[self._members[b]]).ravel()
        return out

    def _sq_dists(self, sels: list[list[int]], out: np.ndarray, saved: np.ndarray,
                  depths: list[int]) -> None:
        """Flat cross-class squared distances of rows with the selected
        features sels, written to out, each adding its features one at a time
        in order. sels may hold one row past out: the row scored next.

        Rows whose first s selected features agree share the partial sum of
        those s features bit for bit, so a row continues the deepest one at
        hand. depths lists, shallowest first, the depth of each checkpoint
        held in the same row of saved, every one a prefix of the current row.
        A row starts from the deepest, saves its own partial sum at the depth
        it shares with the next row while saved has a free row, then drops
        the checkpoints deeper than that depth.
        """
        for i, acc in enumerate(out):
            sel = sels[i]
            depth = depths[-1] if depths else 0
            keep = _shared_prefix(sel, sels[i + 1]) if i + 1 < len(sels) else 0
            start = saved[len(depths) - 1] if depth else None
            if depth == len(sel):  # a repeated row
                acc[...] = start
            for k in range(depth, len(sel)):
                row = self._feature_sq_diffs(sel[k]) if self._store is None else self._store[sel[k]]
                if start is None:
                    acc[...] = row  # 0.0 + x == x: the bits of a sum from zero
                else:
                    np.add(start, row, out=acc)
                start = acc
                if k + 1 == keep and len(depths) < saved.shape[0]:
                    saved[len(depths)] = acc
                    depths.append(keep)
            while depths and depths[-1] > keep:
                depths.pop()

    def _score(self, masks: np.ndarray):
        """Yield (rows, g_gamma, g_omega) for each batch of a validated (M, N)
        stack of non-empty masks: the batch's positions in the stack, and
        their two scores as fresh arrays.

        Rows are scored in lexicographic order, feature 0 most significant,
        so that neighbouring rows share low-feature prefixes for _sq_dists
        to continue. Distances form in chunks of masks, each chunk's sorted
        neighbours go into a tail batch of whole chunks, and the
        exp/sqrt/mean tail runs once per batch. _MASK_CHUNK_BUDGET bounds a
        chunk's distances, the checkpoints (at most M - 1, so none for one
        row) and, at a quarter, a batch's neighbours.
        """
        n_masks = masks.shape[0]
        order = np.lexsort(masks.T[::-1])
        step = max(1, _MASK_CHUNK_BUDGET // self._width)
        per_batch = max(1, _MASK_CHUNK_BUDGET // 4 // (step * self._near_per_mask))
        batch = max(1, min(n_masks, step * per_batch))
        d2 = np.empty((min(step, n_masks), self._width), dtype=np.float64)
        n_saved = max(0, min(_MASK_CHUNK_BUDGET // self._width, n_masks - 1))
        saved = np.empty((n_saved, self._width), dtype=np.float64)
        depths: list[int] = []
        nears = [np.empty((batch, n_out, c), dtype=np.float64) for n_out, c, _ in self._views]
        denom = (self.class_ids.size - 1) * self.ds.n_samples
        for lo in range(0, n_masks, batch):
            hi = min(lo + batch, n_masks)
            m = hi - lo
            # One row past the batch, for the depth the last row shares.
            rows, part = order[lo:hi], masks[order[lo:hi + 1]]
            sels = [mask.nonzero()[0].tolist() for mask in part]
            for clo in range(0, m, step):
                chunk = d2[:min(step, m - clo)]
                cm = chunk.shape[0]
                self._sq_dists(sels[clo:clo + cm + 1], chunk, saved, depths)
                for (_, c, parts), near in zip(self._views, nears):
                    # The pairwise sums below depend on row order: keep sample order.
                    for where, flat, shape, transposed in parts:
                        # An untransposed block may be sorted in place in the
                        # chunk: the lower class's view read its pair first.
                        block = chunk[:, flat].reshape(cm, *shape)
                        block = np.ascontiguousarray(block.swapaxes(1, 2) if transposed else block)
                        block.sort(axis=2)
                        near[clo:clo + cm, where] = block[:, :, :c]
            delta_eff = np.reshape(_effective_delta(self.cfg, part[:m].sum(axis=1)), (-1, 1, 1))
            gamma_total = np.zeros(m, dtype=np.float64)
            omega_total = np.zeros(m, dtype=np.float64)
            for near in nears:
                c = near.shape[2]
                k = np.exp(-near[:m] / delta_eff)
                low = np.sqrt(np.maximum(0.0, 1.0 - k * k))
                # Row means as ndarray.mean computes them: the sum, then / c.
                gamma_total += (np.add.reduce(low, axis=2) / c).sum(axis=1)
                omega_total += (np.add.reduce(2.0 * low - 1.0, axis=2) / c).sum(axis=1)
            gamma_total /= denom
            omega_total /= denom
            yield rows, gamma_total, omega_total

    def _stack(self, masks, ndim: int) -> np.ndarray:
        """A validated (M, N) stack of non-empty masks from one mask (ndim 1)
        or a stack (ndim 2)."""
        stack = as_mask(masks, self.ds.n_features, ndim).reshape(-1, self.ds.n_features)
        if not stack.any(axis=1).all():
            raise ValueError("empty mask")
        return stack

    def evaluate(self, mask) -> CriterionValue:
        """Score one non-empty mask."""
        (_, g_gamma, g_omega), = self._score(self._stack(mask, 1))
        g_gamma, g_omega = float(g_gamma[0]), float(g_omega[0])
        return CriterionValue(g_gamma=g_gamma, g_omega=g_omega, gc=(g_gamma + g_omega) / 2.0)

    def evaluate_many(self, masks) -> np.ndarray:
        """gc of each row of an (M, N) stack of non-empty masks."""
        stack = self._stack(masks, 2)
        gc = np.empty(stack.shape[0], dtype=np.float64)
        for rows, g_gamma, g_omega in self._score(stack):
            gc[rows] = (g_gamma + g_omega) / 2.0
        return gc


def g_gamma(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Mean cross-class lower-approximation mass, in [0, 1]."""
    return CriterionEngine(ds, cfg).evaluate(mask).g_gamma


def g_omega(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Lower minus upper approximation mass over the same neighbors, in [-1, 1]."""
    return CriterionEngine(ds, cfg).evaluate(mask).g_omega


def gc(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> CriterionValue:
    """Full criterion for one (dataset, mask) pair."""
    return CriterionEngine(ds, cfg).evaluate(mask)
