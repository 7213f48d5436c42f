"""Independent reference implementations for equivalence tests.

reference_criterion is a brute-force transcription of the subset criterion
in plain Python, kept deliberately free of numpy and of the package's own
distance, kernel and neighbor code, so equivalence tests compare two
genuinely independent implementations. Its inputs are plain nested lists.

dense_evaluate is the criterion engine as it was before the class-pair
distance store: the full n x n squared-distance matrix summed feature by
feature, np.ix_ cross-class blocks and a stable argsort per row.
The engine's values must equal dense_evaluate's bit for bit.

reference_ts_local_search is the list-based tabu walk that the array-native
frsel.memetic.ts_local_search replaced; differential tests require both to
produce the same trace, result and RNG state.

reference_exhaustive_best is the oracle as a running best/runner-up loop
over the masks in integer order, the form frsel.oracle.exhaustive_best had
before it scored every mask and then selected; both must return the same
best mask, evaluation count, best fitness and runner-up fitness.
"""

from __future__ import annotations

import math

import numpy as np

from frsel.criterion import CriterionEngine, KernelConfig, int_to_mask


def reference_criterion(samples, labels, selected, delta, per_feature_normalization, n_k):
    """Return (g_gamma, g_omega, gc) for one feature subset.

    samples: list of rows (lists of floats); labels: list of ints;
    selected: iterable of chosen column indices (ascending).
    """
    n = len(samples)
    selected = list(selected)
    classes = sorted(set(labels))
    width = delta * len(selected) if per_feature_normalization else delta

    def sq_dist(i, j):
        total = 0.0
        for f in selected:
            diff = samples[i][f] - samples[j][f]
            total += diff * diff
        return total

    gamma_total = 0.0
    omega_total = 0.0
    for i in range(n):
        for d in classes:
            if d == labels[i]:
                continue
            members = [j for j in range(n) if labels[j] == d]
            members.sort(key=lambda j: (sq_dist(i, j), j))
            chosen = members[:n_k]
            lows = []
            for j in chosen:
                k = math.exp(-sq_dist(i, j) / width)
                lows.append(math.sqrt(max(0.0, 1.0 - k * k)))
            gamma_total += sum(lows) / len(lows)
            omega_total += sum(2.0 * v - 1.0 for v in lows) / len(lows)
    denom = (len(classes) - 1) * n
    g_gamma = gamma_total / denom
    g_omega = omega_total / denom
    return g_gamma, g_omega, (g_gamma + g_omega) / 2.0


def random_grid_case(rng, max_samples=8, max_features=4):
    """Draw a small dataset on a 0.01 value grid plus a criterion setup.

    Grid values keep squared distances either exactly zero or at least
    about 1e-4, which bounds the float divergence between math.exp and
    vectorized exponentials far below the comparison tolerance.
    """
    n = int(rng.integers(3, max_samples + 1))
    nf = int(rng.integers(1, max_features + 1))
    n_classes = 2 if n < 4 else int(rng.integers(2, 4))
    labels = [i % n_classes for i in range(n_classes)]
    labels += [int(rng.integers(n_classes)) for _ in range(n - n_classes)]
    values = rng.integers(-200, 201, size=(n, nf))
    samples = [[float(v) / 100.0 for v in row] for row in values]
    n_sel = int(rng.integers(1, nf + 1))
    selected = sorted(rng.choice(nf, size=n_sel, replace=False).tolist())
    delta = float(rng.choice([0.5, 1.0, 2.0]))
    normalization = bool(rng.integers(2))
    n_k = int(rng.integers(1, 5))
    return samples, labels, selected, delta, normalization, n_k


def _dense_sq_dists(ds, mask) -> np.ndarray:
    """Full n x n squared distances, a per-feature stack summed in feature order."""
    sel = np.flatnonzero(np.asarray(mask))
    n = ds.n_samples
    stack = np.empty((sel.size, n, n), dtype=np.float64)
    for i, j in enumerate(sel):
        d = ds.samples[:, j, None] - ds.samples[None, :, j]
        stack[i] = d * d
    return stack.sum(axis=0)


def dense_evaluate(ds, mask, cfg) -> tuple[float, float, float]:
    """Return (g_gamma, g_omega, gc) for one mask the dense way."""
    sel = np.flatnonzero(np.asarray(mask))
    d2 = _dense_sq_dists(ds, mask)
    delta_eff = cfg.delta * sel.size if cfg.per_feature_normalization else cfg.delta
    gamma_total = 0.0
    omega_total = 0.0
    for d in ds.class_ids:
        members = np.flatnonzero(ds.labels == d)
        block = d2[np.ix_(np.flatnonzero(ds.labels != d), members)]
        c = min(cfg.n_k, members.size)
        order = np.argsort(block, axis=1, kind="stable")[:, :c]
        near = np.take_along_axis(block, order, axis=1)
        k = np.exp(-near / delta_eff)
        low = np.sqrt(np.maximum(0.0, 1.0 - k * k))
        gamma_total += float(low.mean(axis=1).sum())
        omega_total += float((2.0 * low - 1.0).mean(axis=1).sum())
    denom = (ds.class_ids.size - 1) * ds.n_samples
    g_gamma = gamma_total / denom
    g_omega = omega_total / denom
    return g_gamma, g_omega, (g_gamma + g_omega) / 2.0


# Largest tabu neighborhood scanned exactly; bigger ones are subsampled.
_TS_CANDIDATE_CAP = 500


def _neighborhood_moves(mask: np.ndarray) -> list[tuple[int, ...]]:
    """Single-bit flips plus (selected, unselected) swaps.

    A move is the tuple of positions it toggles. Flips that would empty the
    mask are excluded so the walk never leaves the feasible space.
    """
    selected = np.flatnonzero(mask == 1)
    unselected = np.flatnonzero(mask == 0)
    moves: list[tuple[int, ...]] = []
    for p in range(mask.size):
        if mask[p] == 1 and selected.size == 1:
            continue
        moves.append((int(p),))
    for p in selected:
        for q in unselected:
            moves.append((int(p), int(q)))
    return moves


def _apply_move(mask: np.ndarray, move: tuple[int, ...]) -> np.ndarray:
    out = mask.copy()
    for p in move:
        out[p] ^= 1
    return out


def reference_ts_local_search(start, cfg: MAConfig, fitness_fn, rng, trace=None) -> np.ndarray:
    """Tabu walk from a non-empty mask; returns the best mask encountered.

    Each iteration scans the neighborhood (subsampled to 500 moves when
    larger), takes the best move whose touched positions are all off the
    tabu list, and marks those positions tabu for the next cfg.tl
    iterations. A tabu move is admissible anyway when it beats the best
    fitness seen so far. If every move is tabu and none aspirates, the best
    forbidden move is taken so the walk cannot stall. Accepted moves may be
    worse than the current mask; that is the escape mechanism.

    `trace`, if given, receives (iteration, touched_positions, fitness) per
    accepted move.
    """
    current = np.asarray(start, dtype=np.uint8).copy()
    if not current.any():
        raise ValueError("empty start mask")
    best = current.copy()
    best_f = fitness_fn(current)
    expiry: dict[int, int] = {}
    for it in range(1, cfg.ts_iters + 1):
        moves = _neighborhood_moves(current)
        if not moves:
            break
        if len(moves) > _TS_CANDIDATE_CAP:
            pick = rng.choice(len(moves), size=_TS_CANDIDATE_CAP, replace=False)
            pick.sort()
            moves = [moves[p] for p in pick]
        candidates = [_apply_move(current, mv) for mv in moves]
        if hasattr(fitness_fn, "batch"):
            fits = fitness_fn.batch(candidates)
        else:
            fits = [fitness_fn(m) for m in candidates]
        chosen = None
        chosen_f = -np.inf
        chosen_mask = None
        banned = None
        banned_f = -np.inf
        banned_mask = None
        for mv, m, f in zip(moves, candidates, fits):
            tabu = any(expiry.get(p, 0) > it for p in mv)
            if not tabu or f > best_f:
                if f > chosen_f:
                    chosen, chosen_f, chosen_mask = mv, f, m
            elif f > banned_f:
                banned, banned_f, banned_mask = mv, f, m
        if chosen is None:
            chosen, chosen_f, chosen_mask = banned, banned_f, banned_mask
        current = chosen_mask
        for p in chosen:
            expiry[p] = it + cfg.tl
        if chosen_f > best_f:
            best = current.copy()
            best_f = chosen_f
        if trace is not None:
            trace.append((it, tuple(chosen), float(chosen_f)))
    return best


def reference_exhaustive_best(ds, kcfg=KernelConfig()):
    """Return (best_mask, best_fitness, evaluated, runner_up_fitness).

    Ties are broken toward smaller popcount, then smaller mask integer.
    """
    n = ds.n_features
    engine = CriterionEngine(ds, kcfg)
    best_value = -np.inf
    best_mask: np.ndarray | None = None
    best_bits = 0
    runner_up: float | None = None
    for value_int in range(1, 1 << n):
        mask = int_to_mask(value_int, n)
        score = engine.evaluate(mask).gc
        bits = int(mask.sum())
        if score > best_value or (score == best_value and bits < best_bits):
            if best_mask is not None:
                runner_up = best_value if runner_up is None else max(runner_up, best_value)
            best_value = score
            best_mask = mask
            best_bits = bits
        else:
            runner_up = score if runner_up is None else max(runner_up, score)
    return best_mask, float(best_value), (1 << n) - 1, runner_up
