"""Regenerate the golden `frsel select` outputs under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py [--compare] [case ...]

Every case directory holds its input `data.csv` and the `selection.json`,
`runlog.jsonl` and `metrics.json` that `frsel select` wrote for it. Cases in
BASELINE_CASES also hold, for each baseline kind, `baseline_<KIND>.json`
(best mask, best fitness, evaluations, termination) and
`baseline_<KIND>.runlog.jsonl` (timing excluded) from `run_baseline` on the
case's training split. Cases in ORACLE_CASES hold the `oracle.json` that
`frsel oracle` wrote. tests/test_golden.py reruns each case and asserts byte
equality. A change that alters these outputs on purpose reruns this script
in a commit of its own and says why.

--compare writes nothing under tests/golden/. It regenerates each case in a
temporary directory and prints, for every golden file, each non-float field
whose value changed and the largest absolute change of a float field, so
the commit that regenerates the goldens can quote what moved.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
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
    # 6 features and 3 classes: 63 masks
    "three_class_small": ["--seed", "1"],
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


def baseline_outputs(name: str, kind: str, data: Path | None = None) -> dict[str, str]:
    """File name -> text of one baseline kind's golden outputs for a case,
    run on data (default: the case's committed data.csv)."""
    params = BASELINE_CASES[name]
    train, _ = split(load_csv(data or GOLDEN_DIR / name / "data.csv"), 0.66, params["seed"])
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


def regenerate(name: str, case_dir: Path) -> None:
    """Write every golden file of one case into case_dir."""
    case_dir.mkdir(exist_ok=True)
    data = case_dir / "data.csv"
    _make_data(name, data)
    rc = main(["select", "--data", str(data), "--out", str(case_dir), *CASES[name]])
    if rc != 0:
        raise SystemExit(f"{name}: frsel select exited with {rc}")
    if name in BASELINE_CASES:
        for kind in BASELINE_KINDS:
            for file_name, text in baseline_outputs(name, kind, data).items():
                (case_dir / file_name).write_text(text, encoding="utf-8")
    if name in ORACLE_CASES:
        rc = main(["oracle", "--data", str(data), "--out", str(case_dir), *ORACLE_CASES[name]])
        if rc != 0:
            raise SystemExit(f"{name}: frsel oracle exited with {rc}")


def _parse(path: Path):
    """A golden file as JSON values: one per line of a .jsonl file, a list of
    rows for a .csv file with its numeric cells as floats."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    rows = list(csv.reader(text.splitlines()))
    return [rows[0]] + [[float(cell) for cell in row] for row in rows[1:]]


def _differences(old, new, where: str = ""):
    """Yield (where, old, new) for each leaf that differs; a float leaf is
    yielded whenever both sides are floats, so its change can be measured."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from _differences(old[key], new[key], f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(a, b, f"{where}[{i}]")
    elif isinstance(old, float) and isinstance(new, float) or old != new:
        yield where, old, new


def compare(name: str) -> list[str]:
    """Report lines for one case: the changed non-float fields of each golden
    file and its largest float change."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            regenerate(name, fresh)
        for path in sorted((GOLDEN_DIR / name).iterdir()):
            changed, largest, at = [], 0.0, ""
            for where, old, new in _differences(_parse(path), _parse(fresh / path.name)):
                if not (isinstance(old, float) and isinstance(new, float)):
                    changed.append(f"  {where or '(file)'}: {old!r} -> {new!r}")
                elif abs(new - old) > largest:
                    largest, at = abs(new - old), f" at {where}"
            lines.append(f"{name}/{path.name}: {len(changed)} non-float changes, "
                         f"largest float change {largest:.3g}{at}")
            lines += changed
    return lines


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--compare"]:
        for case in args[1:] or CASES:
            print("\n".join(compare(case)), flush=True)
    else:
        for case in args or CASES:
            regenerate(case, GOLDEN_DIR / case)
