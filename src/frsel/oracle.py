"""Exhaustive subset enumeration, the ground truth for optimizer tests."""

from __future__ import annotations

import mmap
import os
import sys
import threading
from dataclasses import dataclass, fields

import numpy as np

from .criterion import CriterionEngine, KernelConfig, mask_names, mask_to_hex
from .datasets import Dataset

DEFAULT_MAX_N = 20

# The bound pass draws each sample's neighbours from the first this many
# members of each class (at least n_k). numpy sorts a row of up to 32 in
# about a third of the time of a 100-wide one; a cap of 16 leaves too many
# masks unpruned on overlapping classes.
_BOUND_CANDIDATES = 32


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimum over every non-empty mask, plus the best losing fitness.

    runner_up_fitness is the highest fitness among masks other than
    best_mask; None only when a single candidate exists (N = 1). evaluated
    is 2^N - 1, the masks the certificate covers: each was scored in full
    or shown by its bound to score below the runner-up.
    """

    best_mask: np.ndarray
    best_fitness: float
    evaluated: int
    runner_up_fitness: float | None


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, where the OS keeps
    one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether a forked child may run Python: os.fork exists, the platform
    is not macOS (where CPython documents fork as unsafe), and the calling
    thread is the process's only Python thread, so no lock can be held by a
    thread the child lacks."""
    return hasattr(os, "fork") and sys.platform != "darwin" and threading.active_count() == 1


class _Slice:
    """fn(part), a float64 score per row of part, computed by a forked child
    into a shared anonymous mmap, or by result() in the calling thread where
    _may_fork says no or os.fork fails. name says which slice it is."""

    def __init__(self, fn, part: np.ndarray, name: str):
        self._fn, self._part, self._name = fn, part, name
        self._pid = None
        self._scores = None
        if not _may_fork():
            return
        scores = mmap.mmap(-1, 8 * len(part))
        try:
            pid = os.fork()
        except OSError:
            scores.close()
            return
        if pid == 0:
            code = 1
            try:
                np.frombuffer(scores, dtype=np.float64)[:] = fn(part)
                code = 0
            except BaseException:
                import traceback

                os.write(2, traceback.format_exc().encode())
                raise
            finally:
                # Never return into the caller's stack, flush inherited stdio
                # buffers or run atexit handlers.
                os._exit(code)
        self._pid, self._scores = pid, scores

    def reap(self) -> int:
        """Wait for the child if it has not been waited for; its exit code
        (minus the signal number if a signal killed it), else 0."""
        if self._pid is None:
            return 0
        pid, self._pid = self._pid, None
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def result(self) -> np.ndarray:
        if self._scores is None:
            return self._fn(self._part)
        try:
            code = self.reap()
            if code:
                raise RuntimeError(f"the child process scoring {self._name} exited with code {code}")
            return np.frombuffer(self._scores, dtype=np.float64).copy()
        finally:
            self._scores.close()


class _ForkedHelpers:
    """evaluate_split's helpers for the oracle: submit(fn, part) forks a
    child that scores part (see _Slice), and leaving the with block reaps
    every child still running, as a thread pool's with block joins its
    threads."""

    def __init__(self):
        self._slices: list[_Slice] = []

    def submit(self, fn, part: np.ndarray) -> _Slice:
        # The caller scores slice 0.
        piece = _Slice(fn, part, f"slice {len(self._slices) + 1} ({len(part)} masks)")
        self._slices.append(piece)
        return piece

    def __enter__(self) -> _ForkedHelpers:
        return self

    def __exit__(self, *exc) -> None:
        for piece in self._slices:
            piece.reap()


def _sweep(engine: CriterionEngine, masks: np.ndarray, score=None) -> np.ndarray:
    """engine.evaluate_split over masks on every usable core, with forked
    children as its helpers."""
    with _ForkedHelpers() as helpers:
        return engine.evaluate_split(masks, usable_cores(), helpers, score)


def exhaustive_best(
    ds: Dataset, kcfg: KernelConfig = KernelConfig(), max_n: int = DEFAULT_MAX_N
) -> OracleResult:
    """Certify the optimum over all 2^N - 1 non-empty masks.

    The selection rule: highest fitness, then smaller popcount, then
    smaller mask integer, so the result is reproducible when distinct masks
    score identically. The runner-up is the next mask in that order. The
    max_n guard caps the exponential sweep, whose mask table takes 2^N * N
    bytes.

    Two passes find it without scoring every mask in full (branch and
    bound, after Narendra and Fukunaga, 1977, with a bound per mask):

    1. Every mask gets an upper bound of its gc: the criterion with each
       sample's neighbours drawn from the first max(_BOUND_CANDIDATES,
       n_k) members of each class (see CriterionEngine._score).
    2. The two masks with the largest bounds are scored in full; the lower
       of their two scores, r, is at most the runner-up's fitness. Every
       mask whose bound is at least r - 2^-20 is scored in full, and the
       rule above selects among those in table order.

    A mask left out scores below r, so it is neither the optimum nor the
    runner-up, and the result is the one scoring every mask would give.
    The margin covers np.exp, the one step of the bound that is not
    monotone: for a larger distance it may return a k up to a few ulps
    larger, m ulps of 1 say. sqrt(1 - k^2) then falls by at most
    sqrt(2 * m * 2^-53) = sqrt(m) * 2^-26, about 1.5e-8 for m = 1; the worst
    case is k near 1, at a duplicate cross-class row. The weights of all
    neighbour values in gc add up to 1.5, so gc falls by at most
    1.5 * sqrt(m) * 2^-26, below 2^-20 for m up to 1,800. evaluated counts
    the masks the certificate covers, 2^N - 1.

    Each pass runs on every core the process may run on (usable_cores):
    its masks are cut into that many contiguous slices, the first scored in
    the calling thread and each other one in a child process forked for the
    pass, which writes its scores to shared memory. A child runs numpy
    without waiting on the caller's interpreter lock. Fork is used only
    where os.fork exists, the platform is not macOS, and the caller is the
    process's only Python thread; otherwise, or when os.fork fails, the
    calling thread scores that slice too. Every child is waited for before
    the call returns or raises, and a child that fails raises RuntimeError.
    Scores and bounds do not depend on the cut or on where a slice runs, so
    the result does not depend on the core count; CPU affinity (taskset)
    is the control. Each child holds its own kernel buffers, about 1.5 MB,
    which the caller's peak RSS does not show.
    """
    n = ds.n_features
    if n > max_n:
        raise ValueError(f"N={n} exceeds max_n={max_n}")
    ints = np.arange(1, 1 << n, dtype=np.uint32)
    masks = np.empty((ints.size, n), dtype=np.uint8)
    for j in range(n):
        masks[:, j] = (ints >> j) & 1
    engine = CriterionEngine(ds, kcfg)
    kept = masks
    if n > 1:
        cap = max(_BOUND_CANDIDATES, kcfg.n_k)
        bounds = _sweep(engine, masks, lambda part: engine._gc_many(part, cap))
        r = engine.evaluate_many(masks[np.argpartition(bounds, -2)[-2:]]).min()
        kept = masks[bounds >= r - 2.0 ** -20]
    scores = _sweep(engine, kept)
    order = np.lexsort((kept.sum(axis=1, dtype=np.uint8), -scores))
    return OracleResult(
        best_mask=kept[order[0]].copy(),
        best_fitness=float(scores[order[0]]),
        evaluated=ints.size,
        runner_up_fitness=float(scores[order[1]]) if n > 1 else None,
    )


def oracle_to_dict(result: OracleResult, feature_names) -> dict:
    """JSON-ready form of an OracleResult: its fields, best_mask as hex, then
    best_features, the names of the selected columns."""
    out = {f.name: getattr(result, f.name) for f in fields(result)}
    out["best_mask"] = mask_to_hex(result.best_mask)
    out["best_features"] = mask_names(result.best_mask, feature_names)
    return out
