"""Regenerate the golden `frsel select` outputs under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Every case directory holds its input `data.csv` and the `selection.json`,
`runlog.jsonl` and `metrics.json` that `frsel select` wrote for it. Cases in
BASELINE_CASES also hold, for each baseline kind, `baseline_<KIND>.json`
(best mask, best fitness, evaluations, termination) and
`baseline_<KIND>.runlog.jsonl` (timing excluded) from `run_baseline` on the
case's training split. Cases in ORACLE_CASES hold the `oracle.json` that
`frsel oracle` wrote. tests/test_golden.py reruns each case and asserts byte
equality. A change that alters these outputs on purpose reruns this script
in a commit of its own and says why.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

from frsel.baselines import BASELINE_KINDS, BaselineConfig, run_baseline
from frsel.cli import main
from frsel.criterion import KernelConfig, mask_to_hex
from frsel.datasets import load_csv, split, zscore_apply, zscore_fit
from frsel.memetic import runlog_lines

GOLDEN_DIR = Path(__file__).resolve().parent
OUTPUTS = ("selection.json", "runlog.jsonl", "metrics.json")

# case name -> extra `frsel select` arguments after --data/--out.
CASES: dict[str, list[str]] = {
    # the standard synthetic benchmark (200 x 10), default config
    "synth10": ["--seed", "0"],
    # three classes; the smallest has 3 rows, so at most 2 reach the
    # training split, fewer than kernel.n_k = 3
    "three_class_small": ["--seed", "1", "--ma.g_max=40"],
    # 48 features on 20 rows: tabu neighbourhoods exceed 500 moves, so the
    # walk's subsampling path runs
    "wide48": ["--seed", "2", "--ma.np=4", "--ma.g_max=1", "--ma.ts_iters=3"],
}

# case name -> BaselineConfig fields shared by GA, BPSO and BDE; the seed
# also splits the data, as `frsel select --seed` does.
BASELINE_CASES: dict[str, dict] = {
    "synth10": {"np": 8, "g_max": 12, "seed": 0},
    # every kind passes fitness_stop within 12 generations (GA at 1, BDE at
    # 2, BPSO at 7), so the stop path runs
    "three_class_small": {"np": 4, "g_max": 12, "seed": 1, "fitness_stop": 0.9629},
    "wide48": {"np": 5, "g_max": 4, "seed": 2},
}

# case name -> extra `frsel oracle` arguments after --data/--out.
ORACLE_CASES: dict[str, list[str]] = {
    "synth10": ["--seed", "0"],
}


def _write_csv(path: Path, samples: np.ndarray, labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(samples.shape[1])] + ["label"])
        for row, label in zip(samples, labels):
            writer.writerow([f"{v:.4f}" for v in row] + [int(label)])


def _make_data(name: str, path: Path) -> None:
    if name == "synth10":
        main(["synth", "--seed", "0", "--out", str(path.parent)])
        (path.parent / "synth.csv").replace(path)
        return
    if name == "three_class_small":
        rng = np.random.default_rng(101)
        labels = np.repeat([0, 1, 2], [14, 13, 3])
        samples = rng.normal(size=(labels.size, 6))
        samples[:, 0] += 3.0 * labels
        samples[:, 1] -= 2.0 * (labels == 1)
    else:
        rng = np.random.default_rng(202)
        labels = np.repeat([0, 1], 10)
        samples = rng.normal(size=(labels.size, 48))
        samples[:, :4] += 2.5 * labels[:, None]
    _write_csv(path, samples, labels)


def baseline_outputs(name: str, kind: str) -> dict[str, str]:
    """File name -> text of one baseline kind's golden outputs for a case."""
    params = BASELINE_CASES[name]
    train, _ = split(load_csv(GOLDEN_DIR / name / "data.csv"), 0.66, params["seed"])
    train = zscore_apply(train, zscore_fit(train))
    result = run_baseline(train, KernelConfig(), BaselineConfig(kind=kind, **params))
    summary = {
        "mask_hex": mask_to_hex(result.best_mask),
        "best_fitness": result.best_fitness,
        "total_evaluations": result.total_evaluations,
        "terminated_by": result.terminated_by,
    }
    return {
        f"baseline_{kind}.json": json.dumps(summary, indent=2) + "\n",
        f"baseline_{kind}.runlog.jsonl": "".join(
            line + "\n" for line in runlog_lines(result.log, include_timing=False)
        ),
    }


def regenerate(name: str) -> None:
    case_dir = GOLDEN_DIR / name
    case_dir.mkdir(exist_ok=True)
    data = case_dir / "data.csv"
    _make_data(name, data)
    rc = main(["select", "--data", str(data), "--out", str(case_dir), *CASES[name]])
    if rc != 0:
        raise SystemExit(f"{name}: frsel select exited with {rc}")
    if name in BASELINE_CASES:
        for kind in BASELINE_KINDS:
            for file_name, text in baseline_outputs(name, kind).items():
                (case_dir / file_name).write_text(text, encoding="utf-8")
    if name in ORACLE_CASES:
        rc = main(["oracle", "--data", str(data), "--out", str(case_dir), *ORACLE_CASES[name]])
        if rc != 0:
            raise SystemExit(f"{name}: frsel oracle exited with {rc}")


if __name__ == "__main__":
    for case in sys.argv[1:] or CASES:
        regenerate(case)
