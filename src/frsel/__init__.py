"""Feature selection by kernelized fuzzy-rough separability and memetic search.

The package namespace holds the names a study needs end to end. Everything
else is imported from its module: frsel.criterion, frsel.memetic,
frsel.baselines, frsel.oracle, frsel.evaluation, frsel.datasets, frsel.cli.
"""

__version__ = "0.1.0"

from .baselines import BaselineConfig, compare, run_baseline
from .criterion import KernelConfig, gc
from .datasets import (
    Dataset,
    SynthSpec,
    catalog,
    load_csv,
    save_csv,
    split,
    synth_clusters,
    zscore_apply,
    zscore_fit,
)
from .evaluation import auc, eta, evaluate_subset, kappa
from .memetic import MAConfig, adapt_params, group_variance, run_ma, runlog_lines
from .oracle import exhaustive_best

__all__ = [
    "BaselineConfig",
    "Dataset",
    "KernelConfig",
    "MAConfig",
    "SynthSpec",
    "adapt_params",
    "auc",
    "catalog",
    "compare",
    "eta",
    "evaluate_subset",
    "exhaustive_best",
    "gc",
    "group_variance",
    "kappa",
    "load_csv",
    "run_baseline",
    "run_ma",
    "runlog_lines",
    "save_csv",
    "split",
    "synth_clusters",
    "zscore_apply",
    "zscore_fit",
]
