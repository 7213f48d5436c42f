import re
from pathlib import Path

import frsel

README = Path(__file__).resolve().parents[1] / "README.md"

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
