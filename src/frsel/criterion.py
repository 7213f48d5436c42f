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

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .datasets import Dataset, check_fields

if TYPE_CHECKING:
    from concurrent.futures import Executor

# Above this many float64 elements, the class-pair distance store is not
# precomputed and each evaluation builds its cross-class distances itself.
_STORE_BUDGET = 8_000_000

# A chunk of masks holds at least one mask, and its tile for the widest
# class pair at most this many float64 elements (512 KB) unless, with the
# store, it takes ceil(N/4) masks: a product reads all N store rows once per
# chunk. A copy group of transposed candidates is no larger, or one mask;
# a quarter of it bounds one tail batch's neighbours (at least one chunk).
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
    at least one column. Every squared distance outside CriterionEngine,
    which rounds its own to a grid, forms here."""
    out = np.subtract.outer(a[:, 0], b[:, 0])
    out *= out
    tmp = np.empty_like(out)
    for j in range(1, a.shape[1]):
        np.subtract.outer(a[:, j], b[:, j], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _rank_sums(values: np.ndarray) -> np.ndarray:
    """(m, n_out) sums over axis 1 of (m, c, n_out) neighbour values, bit for
    bit what np.add.reduce gives along a contiguous length-c last axis. numpy
    adds fewer than 8 values there in order, as a reduce over the middle axis
    does, only faster; 8 or more it sums pairwise, so those sum a transposed
    copy."""
    if values.shape[1] < 8:
        return np.add.reduce(values, axis=1)
    return np.add.reduce(np.ascontiguousarray(values.swapaxes(1, 2)), axis=2)


class CriterionEngine:
    """Evaluates the criterion for many masks over one fixed dataset.

    Only cross-class distances enter the score. They lie flat, one row-major
    (|a|, |b|) block per class pair a < b, read transposed for the reverse
    direction, and a chunk of masks is scored one pair's tile at a time
    (see _score). Each feature's squared differences are rounded to the
    nearest multiple of one grid step, 2^-e, where e is the largest integer
    with B * 2^e <= 2^51 and B, the sum over the columns of their squared
    ranges, bounds every squared distance. Every sum of rounded squared
    differences is then an exact float64 multiple of the step, whatever the
    order of its additions. Construction stores the rounded differences
    when N * sum(|a| * |b|) float64 elements fit the budget; otherwise every
    evaluation rebuilds the selected ones. Either way a row's distances are
    exact, so a mask's score does not depend on the stack, chunk or BLAS
    thread count it is scored with, and evaluate gives the bits that
    evaluate_many gives. All methods are pure with respect to the engine
    state and safe to call from several threads at once.

    Raises ValueError, naming the column, where the bound B overflows
    float64, as it does when one column's range exceeds about 1.34e154.
    """

    def __init__(self, ds: Dataset, cfg: KernelConfig = KernelConfig()):
        self.ds = ds
        self.cfg = cfg
        self.class_ids = ds.class_ids
        with np.errstate(over="ignore"):
            bound = np.cumsum(np.square(np.ptp(ds.samples, axis=0)))
        if not np.isfinite(bound[-1]):
            name = ds.feature_names[np.argmax(~np.isfinite(bound))]
            raise ValueError(f"squared distances overflow float64 at column {name!r}")
        frac, exp = np.frexp(bound[-1])
        self._grid = int(51 - exp + (frac == 0.5))  # the e of the class docstring
        self._members = [np.flatnonzero(ds.labels == d) for d in self.class_ids]
        outsiders = [np.flatnonzero(ds.labels != d) for d in self.class_ids]
        # Per class: its outsider count and the neighbours kept per outsider.
        # Per pair a < b: its flat block, its shape, and the rows of a's
        # outsiders that b's members fill and of b's that a's fill, in sample
        # order (the tail's pairwise sums depend on it), a run as a slice.
        self._views = [(out.size, min(cfg.n_k, ms.size)) for out, ms in zip(outsiders, self._members)]
        self._pairs = []
        width = 0
        for a, b in itertools.combinations(range(len(self._members)), 2):
            rows = [np.searchsorted(outsiders[d], self._members[e]) for d, e in ((a, b), (b, a))]
            rows = [slice(r[0], r[-1] + 1) if r[-1] - r[0] == r.size - 1 else r for r in rows]
            shape = (self._members[a].size, self._members[b].size)
            self._pairs.append((a, b, slice(width, width + shape[0] * shape[1]), shape, *rows))
            width += shape[0] * shape[1]
        self._widest = max(flat.stop - flat.start for _, _, flat, *_ in self._pairs)
        self._store: np.ndarray | None = None
        if ds.n_features * width <= _STORE_BUDGET:
            self._store = np.empty((ds.n_features, width), dtype=np.float64)
            for a, b, flat, *_ in self._pairs:
                for j, row in enumerate(self._store[:, flat]):
                    self._sq_diffs(j, a, b, row)

    def _sq_diffs(self, j: int, a: int, b: int, out: np.ndarray) -> np.ndarray:
        """Column j's squared differences between classes a and b, rounded
        to the grid, written row-major to the flat, contiguous out."""
        col = self.ds.samples[:, j]
        block = out.reshape(self._members[a].size, self._members[b].size)
        np.subtract.outer(col[self._members[a]], col[self._members[b]], out=block)
        np.square(block, out=block)
        np.ldexp(block, self._grid, out=block)
        np.rint(block, out=block)
        np.ldexp(block, -self._grid, out=block)
        return out

    def _sq_dists(self, chunk: np.ndarray, pair, tile: np.ndarray) -> None:
        """One class pair's flat squared distances for each mask of chunk,
        written to the rows of tile. With the store, two or more rows take
        one matrix product with the pair's store columns; a single row, or
        any row without the store, adds its selected features' rows of the
        pair's block. Every sum is exact, so both give the same bits."""
        a, b, flat, *_ = pair
        if self._store is not None and len(chunk) > 1:
            np.matmul(chunk.astype(np.float64), self._store[:, flat], out=tile)
            return
        spare = np.empty(tile.shape[1]) if self._store is None else None
        tile.fill(0.0)
        for mask, acc in zip(chunk, tile):
            for j in mask.nonzero()[0]:
                acc += self._store[j, flat] if spare is None else self._sq_diffs(j, a, b, spare)

    def _score(self, masks: np.ndarray, cap: int | None = None):
        """Yield (lo, g_gamma, g_omega) for each batch of a validated (M, N)
        stack of non-empty masks, in the stack's order: the batch's first
        row, and the two scores of its rows as fresh arrays.

        Distances form pair-major per chunk of masks: a pair (a, b)'s tile
        holds the chunk's (|a|, |b|) blocks. a's view sorts copies of its
        transposed candidates, in groups of at most _MASK_CHUNK_BUDGET
        elements or one mask; b's view then sorts the tile in place. The
        sorted neighbours go into a tail batch of whole chunks, at most a
        quarter of the budget or one chunk, scored once per batch.

        With a cap of at least n_k, each sample's neighbours in a class are
        drawn from that class's first cap members only, so each block sorts
        rows at most cap wide. The r-th nearest of a subset is no nearer
        than the r-th nearest of the whole class, and every later step is
        monotone except np.exp, so both scores are then upper bounds of the
        uncapped ones, up to np.exp's rounding (see oracle.exhaustive_best).
        Where the cap covers every class they are the uncapped bits.
        """
        n_masks = masks.shape[0]
        # A chunk's tile for the widest pair fits the budget, or holds one
        # mask; with the store, ceil(N/4) or more, as a product reads N rows.
        floor = 1 if self._store is None else -(-self.ds.n_features // 4)
        step = max(floor, _MASK_CHUNK_BUDGET // self._widest)
        near_per_mask = sum(n_out * c for n_out, c in self._views)
        batch = max(1, min(n_masks, step * max(1, _MASK_CHUNK_BUDGET // 4 // (step * near_per_mask))))
        tiles = np.empty(min(step, n_masks) * self._widest, dtype=np.float64)
        # Neighbours rank-major: one (c, n_out) plane per mask, see _rank_sums.
        nears = [np.empty((batch, c, n_out), dtype=np.float64) for n_out, c in self._views]
        denom = (self.class_ids.size - 1) * self.ds.n_samples
        for lo in range(0, n_masks, batch):
            part = masks[lo:lo + batch]
            m = part.shape[0]
            for clo in range(0, m, step):
                chunk = part[clo:clo + step]
                cm = chunk.shape[0]
                for pair in self._pairs:
                    a, b, _, shape, rows_a, rows_b = pair
                    tile = tiles[:cm * shape[0] * shape[1]].reshape(cm, *shape)
                    self._sq_dists(chunk, pair, tile.reshape(cm, -1))
                    group = max(1, _MASK_CHUNK_BUDGET // tile[0, :cap].size)
                    views = [(a, rows_a, glo, tile[glo:glo + group, :cap].swapaxes(1, 2))
                             for glo in range(0, cm, group)] + [(b, rows_b, 0, tile[:, :, :cap])]
                    for d, rows, glo, block in views:
                        # a's candidates lie along the tile's rows: sort copies
                        # of them before b's view sorts the tile in place.
                        block = block.copy() if d == a else block
                        block.sort(axis=2)
                        near = nears[d][clo + glo:clo + glo + len(block)]
                        near[:, :, rows] = block[:, :, :near.shape[1]].swapaxes(1, 2)
            delta_eff = np.reshape(_effective_delta(self.cfg, part.sum(axis=1)), (-1, 1, 1))
            gamma_total = np.zeros(m, dtype=np.float64)
            omega_total = np.zeros(m, dtype=np.float64)
            for near in nears:
                c = near.shape[1]
                k = np.exp(-near[:m] / delta_eff)
                low = np.sqrt(np.maximum(0.0, 1.0 - k * k))
                # Row means as ndarray.mean computes them: the sum, then / c.
                gamma_total += (_rank_sums(low) / c).sum(axis=1)
                omega_total += (_rank_sums(2.0 * low - 1.0) / c).sum(axis=1)
            gamma_total /= denom
            omega_total /= denom
            yield lo, gamma_total, omega_total

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
        return self._gc_many(masks)

    def _gc_many(self, masks, cap: int | None = None) -> np.ndarray:
        """evaluate_many, or with a cap of at least n_k the upper bound of
        each row's gc that _score gives with that cap."""
        stack = self._stack(masks, 2)
        gc = np.empty(stack.shape[0], dtype=np.float64)
        for lo, g_gamma, g_omega in self._score(stack, cap):
            gc[lo:lo + g_gamma.size] = (g_gamma + g_omega) / 2.0
        return gc

    def evaluate_split(self, masks, parts: int, helpers: Executor | None, score=None) -> np.ndarray:
        """score's value of each row, evaluate_many's gc by default, from at
        most `parts` contiguous, non-empty slices of the stack: the first
        scored in the calling thread, each other one by `helpers`, any
        object whose submit(score, part) returns a handle with result(): a
        thread pool with parts - 1 threads (FitnessCache), or forked
        processes (the oracle). A row's distances are exact sums on the
        engine's grid, so its score does not depend on the stack it is in,
        and the bits do not depend on `parts` or on the helpers.
        """
        if score is None:
            score = self.evaluate_many
        parts = min(len(masks), parts)
        if parts < 2:
            return score(masks)
        slices = np.array_split(masks, parts)
        rest = [helpers.submit(score, part) for part in slices[1:]]
        first = score(slices[0])
        return np.concatenate([first, *(future.result() for future in rest)])


def g_gamma(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Mean cross-class lower-approximation mass, in [0, 1]."""
    return CriterionEngine(ds, cfg).evaluate(mask).g_gamma


def g_omega(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> float:
    """Lower minus upper approximation mass over the same neighbors, in [-1, 1]."""
    return CriterionEngine(ds, cfg).evaluate(mask).g_omega


def gc(ds: Dataset, mask, cfg: KernelConfig = KernelConfig()) -> CriterionValue:
    """Full criterion for one (dataset, mask) pair."""
    return CriterionEngine(ds, cfg).evaluate(mask)
