"""Span recording around frsel's public calls, installed from outside.

A Tracer keeps every span in memory: name, start, end, parent index,
thread id and a work count. `instrument()` swaps the public functions and
methods named in LAYER_HOOKS for thin wrappers that open and close a span,
and restores the originals on exit. Nothing under src/ is edited.

Pool threads of FitnessCache start with an empty span stack. Their spans
take as parent the innermost span open on the tracer's own thread, which is
the cache.batch call that handed them the work, so self time and pool
concurrency can be measured across threads.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from time import perf_counter

NAME, START, END, PARENT, THREAD, COUNT = range(6)


class Tracer:
    """Thread-safe, in-memory span store."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = -1
        rec = [name, 0.0, 0.0, parent, threading.get_ident(), 1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec[START] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec
        finally:
            self.close(rec)


def _wrapper(tracer: Tracer, fn, name, count=None):
    """fn inside a span; `name` may be a function of the call's arguments."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if count is not None:
            rec[COUNT] = count(args, kwargs, out)
        return out

    return traced


def _tabu_wrapper(tracer: Tracer, fn):
    """ts_local_search inside a span that counts its iterations exactly.

    The walk appends one entry per iteration to its `trace` argument, so the
    wrapper passes a list when the caller did not and counts its length.
    """

    @functools.wraps(fn)
    def traced(start, cfg, fitness_fn, rng, trace=None):
        moves = [] if trace is None else trace
        before = len(moves)
        rec = tracer.open("tabu.walk")
        try:
            return fn(start, cfg, fitness_fn, rng, trace=moves)
        finally:
            tracer.close(rec)
            rec[COUNT] = len(moves) - before

    return traced


def _baseline_name(args, kwargs) -> str:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return f"baselines.{cfg.kind}"


def _hooks():
    """(owner, attribute, wrapper factory) for every traced public call.

    Functions are replaced in every module namespace that calls them by
    name, since `from x import f` binds its own reference.
    """
    from frsel import baselines, cli, criterion, memetic, oracle

    def plain(name, count=None):
        return lambda tracer, fn: _wrapper(tracer, fn, name, count)

    batch_size = plain("cache.batch", lambda a, k, out: len(out))
    mutate = plain("de.mutate")
    crossover = plain("de.crossover")
    return [
        (criterion.CriterionEngine, "__init__", plain("criterion.build")),
        (criterion.CriterionEngine, "evaluate", plain("criterion.evaluate")),
        (memetic.FitnessCache, "batch", batch_size),
        (memetic.FitnessCache, "__call__", plain("cache.call")),
        (memetic, "ts_local_search", _tabu_wrapper),
        (memetic, "init_population", plain("de.init")),
        (memetic, "bde_mutate", mutate),
        (memetic, "bde_crossover", crossover),
        (baselines, "bde_mutate", mutate),
        (baselines, "bde_crossover", crossover),
        (
            baselines,
            "run_baseline",
            plain(_baseline_name, lambda a, k, out: out.total_evaluations),
        ),
        (oracle, "exhaustive_best", plain("oracle.exhaustive", lambda a, k, out: out.evaluated)),
        (cli, "evaluate_subset", plain("evaluation.subset")),
        (cli, "atomic_write_text", plain("cli.write")),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on frsel's public calls for the with-block."""
    saved = []
    try:
        for owner, attr, factory in _hooks():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        inside = [
            (max(a, start), min(b, end)) for a, b in children.get(i, ()) if b > start and a < end
        ]
        out.append(end - start - _covered(inside))
    return out
