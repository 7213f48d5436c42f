#!/usr/bin/env python3
"""Benchmark study: certify the optimum exhaustively, then race optimizers.

Generates the standard synthetic benchmark (10 features of which 3 are
informative, 200 samples), standardizes it, certifies the best mask by
exhaustive enumeration, and runs the memetic search plus the GA, BPSO and
BDE baselines over a block of seeds. Writes oracle.json and compare.csv
into --out and prints the comparison table.

Typical use:
    python3 scripts/run_benchmark.py --runs 20 --out results/
    python3 scripts/run_benchmark.py --quick          # 3 seeds, small budget
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from frsel import (  # noqa: E402
    BaselineConfig,
    KernelConfig,
    MAConfig,
    SynthSpec,
    compare,
    exhaustive_best,
    synth_clusters,
    zscore_apply,
    zscore_fit,
)
from frsel.baselines import compare_csv_text  # noqa: E402
from frsel.cli import atomic_write_text, _json_text  # noqa: E402
from frsel.oracle import oracle_to_dict  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20,
                        help="seeded runs per optimizer (default 20)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed of the block (default 0)")
    parser.add_argument("--out", default="benchmark_results",
                        help="output directory (default benchmark_results)")
    parser.add_argument("--workers", type=int, default=0,
                        help="concurrent fitness evaluations (default serial)")
    parser.add_argument("--quick", action="store_true",
                        help="3 seeds and reduced budgets, for smoke runs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    ds = synth_clusters(SynthSpec(), seed=0)
    params = zscore_fit(ds)
    ds = zscore_apply(ds, params)
    kcfg = KernelConfig()

    print(f"dataset: {ds.n_samples} samples, {ds.n_features} features")
    oracle = exhaustive_best(ds, kcfg)
    print(f"certified optimum {oracle.best_fitness:.10f} "
          f"over {oracle.evaluated} masks")

    if args.quick:
        runs = 3
        ma_cfg = MAConfig(np=20, g_max=40, ts_iters=30)
        base_cfg = BaselineConfig(np=20, g_max=40)
    else:
        runs = args.runs
        ma_cfg = MAConfig()
        base_cfg = BaselineConfig()

    seeds = [args.seed + r for r in range(runs)]
    rows = compare(
        ds, kcfg, ["MA", "GA", "BPSO", "BDE"],
        seeds=seeds,
        ma_config=ma_cfg,
        baseline_config=base_cfg,
        reference_fitness=oracle.best_fitness,
        workers=args.workers,
    )

    out = Path(args.out)
    atomic_write_text(out / "oracle.json",
                      _json_text(oracle_to_dict(oracle, ds.feature_names)))
    atomic_write_text(out / "compare.csv", compare_csv_text(rows))

    header = f"{'optimizer':<10} {'mean_s':>8} {'best':>12} {'mean':>12} {'success%':>9}"
    print()
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row.optimizer:<10} {row.mean_time_s:>8.2f} "
              f"{row.best_fitness:>12.8f} {row.mean_fitness:>12.8f} "
              f"{row.success_rate_pct:>9.1f}")
    print(f"\nwrote {out / 'oracle.json'} and {out / 'compare.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
