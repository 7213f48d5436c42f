#!/usr/bin/env python3
"""Trace one memetic run generation by generation.

Prints the adaptive schedule (population spread, scale factor, crossover
rate) next to the fitness curve, which is the quickest way to see the
adaptation reacting as the population converges.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from frsel import (  # noqa: E402
    KernelConfig,
    MAConfig,
    SynthSpec,
    load_csv,
    run_ma,
    runlog_lines,
    split,
    synth_clusters,
    zscore_apply,
    zscore_fit,
)
from frsel.cli import atomic_write_text  # noqa: E402
from frsel.criterion import mask_names, mask_to_hex  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", help="input CSV; default: synthetic benchmark")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--generations", type=int, default=60)
    parser.add_argument("--np", type=int, default=40, dest="population")
    parser.add_argument("--runlog", help="also write a runlog .jsonl here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.data:
        full = load_csv(args.data)
        train, _ = split(full, 0.66, args.seed)
    else:
        train = synth_clusters(SynthSpec(), seed=0)
    train = zscore_apply(train, zscore_fit(train))

    cfg = MAConfig(np=args.population, g_max=args.generations, seed=args.seed)
    result = run_ma(train, KernelConfig(), cfg)

    print(f"{'g':>4} {'best':>11} {'mean':>11} {'spread':>9} "
          f"{'f_g':>6} {'cr_g':>6} {'evals':>7}")
    for r in result.log:
        print(f"{r.g:>4} {r.best_fitness:>11.6f} {r.mean_fitness:>11.6f} "
              f"{r.sigma_sq:>9.4f} {r.f_g:>6.3f} {r.cr_g:>6.3f} "
              f"{r.evaluations_so_far:>7}")

    names = mask_names(result.best_mask, train.feature_names)
    print(f"\nstopped by {result.terminated_by} after {len(result.log)} "
          f"generations, {result.total_evaluations} distinct masks evaluated")
    print(f"best mask 0x{mask_to_hex(result.best_mask)} "
          f"(fitness {result.best_fitness:.8f}): {', '.join(names)}")
    if args.runlog:
        atomic_write_text(Path(args.runlog), "\n".join(runlog_lines(result.log)) + "\n")
        print(f"runlog written to {args.runlog}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
