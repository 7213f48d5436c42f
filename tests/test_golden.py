"""`frsel select` outputs stay byte-identical to the committed goldens.

The goldens and the script that regenerates them live in tests/golden/.
"""

import pytest

from frsel.cli import main
from golden.make_golden import CASES, GOLDEN_DIR, OUTPUTS


@pytest.mark.parametrize("name", sorted(CASES))
def test_select_matches_golden(name, tmp_path):
    case_dir = GOLDEN_DIR / name
    rc = main(["select", "--data", str(case_dir / "data.csv"), "--out", str(tmp_path),
               *CASES[name]])
    assert rc == 0
    for output in OUTPUTS:
        assert (tmp_path / output).read_bytes() == (case_dir / output).read_bytes(), output
