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


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimum over every non-empty mask, plus the best losing fitness.

    runner_up_fitness is the highest fitness among masks other than
    best_mask; None only when a single candidate exists (N = 1).
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


def exhaustive_best(
    ds: Dataset, kcfg: KernelConfig = KernelConfig(), max_n: int = DEFAULT_MAX_N
) -> OracleResult:
    """Score all 2^N - 1 non-empty masks and return the certified optimum.

    Every mask is scored first, then one stable sort selects: highest
    fitness, then smaller popcount, then smaller mask integer, so the result
    is reproducible when distinct masks score identically. The runner-up is
    the next mask in that order. The max_n guard caps the exponential sweep,
    whose mask table takes 2^N * N bytes.

    The sweep runs on every core the process may run on (usable_cores): the
    mask table is cut into that many contiguous slices, the first scored in
    the calling thread and each other one in a child process forked for the
    sweep, which writes its scores to shared memory. A child runs numpy
    without waiting on the caller's interpreter lock. Fork is used only
    where os.fork exists, the platform is not macOS, and the caller is the
    process's only Python thread; otherwise, or when os.fork fails, the
    calling thread scores that slice too. Every child is waited for before
    the call returns or raises, and a child that fails raises RuntimeError.
    Scores do not depend on the cut or on where a slice runs, so the result
    does not depend on the core count; CPU affinity (taskset) is the
    control. Each child holds its own kernel buffers, about 2 MB, which the
    caller's peak RSS does not show.
    """
    n = ds.n_features
    if n > max_n:
        raise ValueError(f"N={n} exceeds max_n={max_n}")
    ints = np.arange(1, 1 << n, dtype=np.uint32)
    masks = np.empty((ints.size, n), dtype=np.uint8)
    for j in range(n):
        masks[:, j] = (ints >> j) & 1
    engine = CriterionEngine(ds, kcfg)
    with _ForkedHelpers() as helpers:
        scores = engine.evaluate_split(masks, usable_cores(), helpers)
    order = np.lexsort((masks.sum(axis=1, dtype=np.uint8), -scores))
    return OracleResult(
        best_mask=masks[order[0]].copy(),
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
