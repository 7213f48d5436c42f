import csv
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fitness_trace_writes_runlog(tmp_path, capsys):
    runlog = tmp_path / "trace" / "runlog.jsonl"
    rc = load_script("fitness_trace").main(
        ["--generations", "2", "--np", "4", "--runlog", str(runlog)])
    assert rc == 0
    records = [json.loads(line) for line in runlog.read_text().splitlines()]
    assert [r["g"] for r in records] == [1, 2]
    assert all("elapsed_ms" in r for r in records)
    assert f"runlog written to {runlog}" in capsys.readouterr().out
    assert list(runlog.parent.iterdir()) == [runlog]


def test_run_benchmark_quick(tmp_path):
    out = tmp_path / "bench"
    assert load_script("run_benchmark").main(["--quick", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["compare.csv", "oracle.json"]
    oracle = json.loads((out / "oracle.json").read_text())
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["optimizer"] for r in rows] == ["MA", "GA", "BPSO", "BDE"]
    assert max(float(r["best_fitness"]) for r in rows) <= oracle["best_fitness"]
