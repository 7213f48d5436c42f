import importlib
import re
import sys
from pathlib import Path

import frsel

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = README.parent / "bench"

PUBLIC = {
    "BaselineConfig", "Dataset", "KernelConfig", "MAConfig", "SynthSpec",
    "adapt_params", "auc", "catalog", "compare", "eta", "evaluate_subset",
    "exhaustive_best", "gc", "group_variance", "kappa", "load_csv",
    "run_baseline", "run_ma", "runlog_lines", "save_csv", "split",
    "synth_clusters", "zscore_apply", "zscore_fit",
}


def test_public_names():
    assert sorted(frsel.__all__) == sorted(PUBLIC)
    for name in frsel.__all__:
        assert getattr(frsel, name).__module__.startswith("frsel.")


def test_readme_python_api_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_module_names_exist():
    # in "Everything else is imported from its module", each backticked name
    # after `frsel.<module>` is an attribute of that module
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Everything else is imported from its module", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    module, checked = None, 0
    for name in re.findall(r"`([^`]*)`", paragraph):
        if name.startswith("frsel."):
            module = importlib.import_module(name)
        else:
            assert hasattr(module, name), f"{module.__name__} has no {name!r}"
            checked += 1
    assert checked >= 10


def test_readme_configuration_keys_exist():
    # a dotted key in backticks under "Configuration" names a live config key
    from frsel.cli import DEFAULTS

    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    prefixes = "|".join(sorted({key.split(".")[0] for key in DEFAULTS if "." in key}))
    named = [
        match
        for span in re.findall(r"`([^`]*)`", section)
        for match in re.findall(rf"\b(?:{prefixes})\.\w+", span)
    ]
    assert len(set(named)) >= 20
    assert sorted(set(named) - set(DEFAULTS)) == []


def test_bench_tracer_wraps_live_names(monkeypatch):
    # bench/spans.py wraps frsel functions and methods by name; a rename or a
    # changed call shape breaks `bench/run.py --trace 1`, which this catches
    from frsel import BaselineConfig, KernelConfig, MAConfig, SynthSpec, baselines, memetic
    from frsel import synth_clusters, zscore_apply, zscore_fit

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    hooks = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans._hooks()]
    ds = synth_clusters(SynthSpec(n_informative=2, n_noise=3, samples_per_class=10), 0)
    ds = zscore_apply(ds, zscore_fit(ds))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        memetic.run_ma(ds, KernelConfig(), MAConfig(np=4, g_max=2, ts_iters=3, fitness_stop=2.0))
        baselines.run_baseline(ds, KernelConfig(), BaselineConfig(kind="GA", np=4, g_max=2))
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"tabu.walk", "cache.batch", "cache.call", "de.init", "de.mutate",
            "baselines.GA"} <= names
    walks = [rec for rec in tracer.spans if rec[spans.NAME] == "tabu.walk"]
    assert [rec[spans.COUNT] for rec in walks] == [3, 3]
    assert all(owner.__dict__[attr] is original for owner, attr, original in hooks)
