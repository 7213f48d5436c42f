"""Outputs stay byte-identical to the committed goldens.

`frsel select`, the GA, BPSO and BDE baselines and `frsel oracle` are each
rerun on their cases. The goldens and the script that regenerates them live
in tests/golden/.
"""

import pytest

from frsel.baselines import BASELINE_KINDS
from frsel.cli import main
from golden.make_golden import (
    BASELINE_CASES,
    CASES,
    GOLDEN_DIR,
    ORACLE_CASES,
    OUTPUTS,
    baseline_outputs,
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_select_matches_golden(name, tmp_path):
    case_dir = GOLDEN_DIR / name
    rc = main(["select", "--data", str(case_dir / "data.csv"), "--out", str(tmp_path),
               *CASES[name]])
    assert rc == 0
    for output in OUTPUTS:
        assert (tmp_path / output).read_bytes() == (case_dir / output).read_bytes(), output


@pytest.mark.parametrize("kind", BASELINE_KINDS)
@pytest.mark.parametrize("name", sorted(BASELINE_CASES))
def test_baseline_matches_golden(name, kind):
    for file_name, text in baseline_outputs(name, kind).items():
        golden = (GOLDEN_DIR / name / file_name).read_text(encoding="utf-8")
        assert text == golden, file_name


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_matches_golden(name, tmp_path):
    case_dir = GOLDEN_DIR / name
    rc = main(["oracle", "--data", str(case_dir / "data.csv"), "--out", str(tmp_path),
               *ORACLE_CASES[name]])
    assert rc == 0
    assert (tmp_path / "oracle.json").read_bytes() == (case_dir / "oracle.json").read_bytes()
