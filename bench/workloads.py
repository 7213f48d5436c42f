"""The three benchmark workloads: inputs from a seed, one timed operation, checks.

Each workload prepares its inputs once per run (a generated CSV, loaded and
standardized the way the CLI does it, plus an exact reference answer), then
`operate` performs the timed operation and `inspect` lists every way an
outcome breaks a property that any correct version of frsel keeps:

- the reported best fitness equals a fresh CriterionEngine re-score of the
  best mask, bit for bit;
- select-10 ends on the certified optimum of its train split, and oracle-12
  returns the certified mask, with every mask evaluated and a runner-up
  strictly below the best;
- every repeat on the same inputs gives identical masks, fitnesses,
  evaluation counts and output files.

The certified optimum is computed by this module's own enumeration over a
fresh engine, independent of frsel.oracle's loop and tie-break code.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from frsel import baselines, cli, memetic, oracle
from frsel.baselines import BASELINE_KINDS, BaselineConfig
from frsel.criterion import CriterionEngine, KernelConfig, hex_to_mask
from frsel.datasets import (
    Dataset,
    SynthSpec,
    load_csv,
    save_csv,
    split,
    synth_clusters,
    zscore_apply,
    zscore_fit,
)
from frsel.memetic import MAConfig

KERNEL = KernelConfig()
TRAIN_FRACTION = 0.66  # the CLI default, used by select-10


def certify(ds: Dataset) -> tuple[np.ndarray, float]:
    """Best mask over all 2^N - 1 masks: highest gc, then fewer bits, then smaller integer."""
    engine = CriterionEngine(ds, KERNEL)
    n = ds.n_features
    best_key = None
    best_mask = None
    for value in range(1, 1 << n):
        mask = np.array([(value >> j) & 1 for j in range(n)], dtype=np.uint8)
        key = (engine.evaluate(mask).gc, -int(mask.sum()), -value)
        if best_key is None or key > best_key:
            best_key, best_mask = key, mask
    return best_mask, best_key[0]


def rescore(ds: Dataset, mask) -> float:
    """gc of a mask from an engine built just for this check."""
    return CriterionEngine(ds, KERNEL).evaluate(np.asarray(mask, dtype=np.uint8)).gc


def standardized(path: Path) -> Dataset:
    ds = load_csv(path)
    return zscore_apply(ds, zscore_fit(ds))


def three_class_wide(seed: int, per_class: int = 150, n_noise: int = 34) -> Dataset:
    """Three Gaussian classes whose centres differ on the first 6 columns only."""
    informative = 6
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(3, dtype=np.int64), per_class)
    samples = rng.normal(0.0, 1.0, size=(labels.size, informative + n_noise))
    centres = rng.normal(0.0, 1.5, size=(3, informative))
    samples[:, :informative] += centres[labels]
    names = [f"x{j}" for j in range(samples.shape[1])]
    return Dataset(samples=samples, labels=labels, feature_names=names)


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks compare."""

    fingerprint: tuple
    problems: list[str] = field(default_factory=list)
    time_to_opt_s: float | None = None
    cache_misses: int = 0
    generations: int = 0
    evals_to_opt: int = 0
    generation_to_opt: int = 0


class Workload:
    """Base: subclasses set name and workers, prepare inputs, operate and inspect."""

    name = ""
    workers = 0
    reach_seconds = 0.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.csv = self.work_dir / "data.csv"

    def probe_args(self) -> list[str]:
        """Arguments for setup_probe.py: the CSV, then the split if any."""
        return [str(self.csv)]

    def operate(self):
        """The timed operation; returns its raw result."""
        raise NotImplementedError

    def inspect(self, raw) -> Outcome:
        """Checks on one raw result, run outside the timed region."""
        raise NotImplementedError

    def reach(self, k: int) -> Outcome:
        """Extra search number k, stopped at the optimum, for time_to_opt_s."""
        raise NotImplementedError


class Select10(Workload):
    """`frsel select` with the default MAConfig on the standard 200x10 synth set."""

    name = "select-10"
    workers = 0
    # One full select gives one time_to_opt_s sample, and only 2 or 3 fit in a
    # run. The end of the window goes to extra MA runs on other MA seeds that
    # stop at the certified optimum (their log up to it matches a full run's);
    # they steady the median.
    reach_seconds = 2.0

    def __init__(self, seed: int, work_dir: Path, spec: SynthSpec = SynthSpec(), extra_args=()):
        super().__init__(seed, work_dir)
        self.extra_args = list(extra_args)
        save_csv(synth_clusters(spec, seed), self.csv)
        train, _ = split(load_csv(self.csv), TRAIN_FRACTION, seed)
        self.train = zscore_apply(train, zscore_fit(train))
        self.opt_mask, self.opt_fitness = certify(self.train)
        self.out = self.work_dir / "out"

    def probe_args(self) -> list[str]:
        return [str(self.csv), str(TRAIN_FRACTION), str(self.seed)]

    def operate(self):
        captured = []
        run_ma = cli.run_ma

        def capturing(*args, **kwargs):
            captured.append(run_ma(*args, **kwargs))
            return captured[-1]

        argv = ["select", "--data", str(self.csv), "--out", str(self.out),
                "--seed", str(self.seed), "--workers", str(self.workers), *self.extra_args]
        cli.run_ma = capturing
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
        finally:
            cli.run_ma = run_ma
        return code, err.getvalue().strip(), captured

    def inspect(self, raw) -> Outcome:
        code, err, captured = raw
        if code != 0 or not captured:
            return Outcome(fingerprint=(), problems=[f"frsel select exited {code}: {err}"])
        result = captured[0]
        files = tuple((self.out / f).read_bytes() for f in ("selection.json", "runlog.jsonl", "metrics.json"))
        out = Outcome(
            fingerprint=(result.best_mask.tobytes(), result.best_fitness, result.total_evaluations, files),
            cache_misses=result.total_evaluations,
            generations=len(result.log),
        )
        selection = json.loads(files[0])
        mask = hex_to_mask(selection["mask_hex"], self.train.n_features)
        if selection["best_fitness"] != result.best_fitness:
            out.problems.append("selection.json fitness differs from the run's best")
        if rescore(self.train, mask) != selection["best_fitness"]:
            out.problems.append("best fitness differs from a fresh re-score of the best mask")
        if not np.array_equal(mask, self.opt_mask) or selection["best_fitness"] != self.opt_fitness:
            out.problems.append(f"ended on {selection['mask_hex']}, not the certified optimum")
        first = next((r for r in result.log if r.best_fitness == self.opt_fitness), None)
        if first is None:
            out.problems.append("no generation reached the certified optimum")
        else:
            out.time_to_opt_s = first.elapsed_ms / 1000.0
            out.evals_to_opt = first.evaluations_so_far
            out.generation_to_opt = first.g
        return out

    def reach(self, k: int) -> Outcome:
        cfg = MAConfig(seed=self.seed + 1 + k, fitness_stop=float(np.nextafter(self.opt_fitness, -np.inf)))
        result = memetic.run_ma(self.train, KERNEL, cfg)
        out = Outcome(fingerprint=())
        if result.terminated_by != "fitness_stop" or not np.array_equal(result.best_mask, self.opt_mask):
            out.problems.append(f"MA seed {cfg.seed} did not stop on the certified optimum")
        elif rescore(self.train, result.best_mask) != result.best_fitness:
            out.problems.append("best fitness differs from a fresh re-score of the best mask")
        else:
            out.time_to_opt_s = result.log[-1].elapsed_ms / 1000.0
        return out


class Oracle12(Workload):
    """`exhaustive_best` on a 200x12 synth set: 3 informative, 9 noise columns."""

    name = "oracle-12"
    workers = 0

    def __init__(self, seed: int, work_dir: Path, spec: SynthSpec = SynthSpec(n_noise=9)):
        super().__init__(seed, work_dir)
        save_csv(synth_clusters(spec, seed), self.csv)
        self.ds = standardized(self.csv)
        self.opt_mask, self.opt_fitness = certify(self.ds)

    def operate(self):
        return oracle.exhaustive_best(self.ds, KERNEL)

    def inspect(self, result) -> Outcome:
        out = Outcome(
            fingerprint=(result.best_mask.tobytes(), result.best_fitness, result.evaluated,
                         result.runner_up_fitness),
        )
        if not np.array_equal(result.best_mask, self.opt_mask) or result.best_fitness != self.opt_fitness:
            out.problems.append("oracle mask or fitness differs from the certified optimum")
        if rescore(self.ds, result.best_mask) != result.best_fitness:
            out.problems.append("best fitness differs from a fresh re-score of the best mask")
        if result.evaluated != (1 << self.ds.n_features) - 1:
            out.problems.append(f"evaluated {result.evaluated} masks")
        if result.runner_up_fitness is None or not result.runner_up_fitness < result.best_fitness:
            out.problems.append("runner-up is not strictly below the best")
        return out


class BaselinesWide(Workload):
    """GA, BPSO and BDE through run_baseline on a 450x40, 3-class set, 2 pool workers."""

    name = "baselines-wide"
    workers = 2
    NP = 20
    G_MAX = 2

    def __init__(self, seed: int, work_dir: Path, per_class: int = 150, n_noise: int = 34):
        super().__init__(seed, work_dir)
        save_csv(three_class_wide(seed, per_class=per_class, n_noise=n_noise), self.csv)
        self.ds = standardized(self.csv)

    def operate(self):
        return [
            baselines.run_baseline(
                self.ds, KERNEL,
                BaselineConfig(kind=kind, np=self.NP, g_max=self.G_MAX, seed=self.seed),
                workers=self.workers,
            )
            for kind in BASELINE_KINDS
        ]

    def inspect(self, results) -> Outcome:
        out = Outcome(
            fingerprint=tuple((r.best_mask.tobytes(), r.best_fitness, r.total_evaluations) for r in results),
            cache_misses=sum(r.total_evaluations for r in results),
        )
        for kind, r in zip(BASELINE_KINDS, results):
            if rescore(self.ds, r.best_mask) != r.best_fitness:
                out.problems.append(f"{kind} best fitness differs from a fresh re-score of its mask")
        return out


WORKLOADS = {w.name: w for w in (Select10, Oracle12, BaselinesWide)}
