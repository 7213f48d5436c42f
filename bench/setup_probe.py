"""Time what every CLI call pays before its search starts; run in a fresh interpreter.

    python3 setup_probe.py DATA.csv [TRAIN_FRACTION SEED]

Imports frsel (and with it numpy), reads the CSV and standardizes it: on a
train/test split fitted on train, as `frsel select` does, when a fraction and
seed are given, else on the whole set. Prints one JSON object with
`import_s` and `load_s`.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> None:
    t0 = perf_counter()
    from frsel.datasets import load_csv, split, zscore_apply, zscore_fit

    t1 = perf_counter()
    ds = load_csv(argv[0])
    if len(argv) == 3:
        train, test = split(ds, float(argv[1]), int(argv[2]))
        params = zscore_fit(train)
        zscore_apply(train, params)
        zscore_apply(test, params)
    else:
        zscore_apply(ds, zscore_fit(ds))
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1:])
