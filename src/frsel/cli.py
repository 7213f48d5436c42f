"""Command-line front end.

Subcommands: select, compare, oracle, synth, evaluate. Configuration is one
flat dotted-key namespace with three layers, later ones winning: built-in
defaults, a JSON config file (--config), command-line flags including dotted
overrides such as --ma.np=40. Unknown keys are rejected. All output files
are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .baselines import (
    BASELINE_KINDS,
    BaselineConfig,
    compare,
    compare_csv_text,
)
from .criterion import (
    KernelConfig,
    hex_to_mask,
    mask_from_names,
    mask_names,
    mask_to_hex,
    popcount,
)
from .datasets import SynthSpec, csv_text, load_csv, split, synth_clusters, zscore_apply, zscore_fit
from .evaluation import evaluate_subset, report_to_dict
from .memetic import MAConfig, run_ma, runlog_lines
from .oracle import exhaustive_best, oracle_to_dict

DEFAULTS: dict[str, object] = {
    "data": None,
    "train_fraction": 0.66,
    "seed": 0,
    "out": ".",
    "workers": 0,
    "kernel.delta": 1.0,
    "kernel.per_feature_normalization": True,
    "kernel.n_k": 3,
    "ma.np": 80,
    "ma.g_max": 300,
    "ma.f_min": 0.4,
    "ma.f_max": 0.9,
    "ma.cr_min": 0.3,
    "ma.cr_max": 0.8,
    "ma.tl": 20,
    "ma.ts_iters": 200,
    "ma.fitness_stop": 0.9950,
    "ma.init_neighbors": 5,
    "ma.elite_count": 1,
    "baselines.kinds": "GA,BPSO,BDE",
    "baselines.np": 80,
    "baselines.g_max": 300,
    "baselines.ga_crossover": 0.85,
    "baselines.ga_mutation": 0.01,
    "baselines.pso_c1": 2.0,
    "baselines.pso_c2": 2.0,
    "baselines.pso_inertia": 1.0,
    "baselines.pso_vmax": 4.0,
    "baselines.fitness_stop": 0.9950,
    "compare.runs": 20,
    "compare.certify": False,
    "oracle.max_n": 20,
    "evaluate.mask": None,
    "evaluate.k": 5,
    "synth.n_informative": 3,
    "synth.n_noise": 7,
    "synth.samples_per_class": 100,
    "synth.cluster_separation": 6.0,
    "synth.noise_std": 1.0,
}

_SCHEMA: dict[str, str] = {
    "data": "str",
    "train_fraction": "float",
    "seed": "int",
    "out": "str",
    "workers": "int",
    "kernel.delta": "float",
    "kernel.per_feature_normalization": "bool",
    "kernel.n_k": "int",
    "ma.np": "int",
    "ma.g_max": "int",
    "ma.f_min": "float",
    "ma.f_max": "float",
    "ma.cr_min": "float",
    "ma.cr_max": "float",
    "ma.tl": "int",
    "ma.ts_iters": "int",
    "ma.fitness_stop": "float",
    "ma.init_neighbors": "int",
    "ma.elite_count": "int",
    "baselines.kinds": "str",
    "baselines.np": "int",
    "baselines.g_max": "int",
    "baselines.ga_crossover": "float",
    "baselines.ga_mutation": "float",
    "baselines.pso_c1": "float",
    "baselines.pso_c2": "float",
    "baselines.pso_inertia": "float",
    "baselines.pso_vmax": "float",
    "baselines.fitness_stop": "float",
    "compare.runs": "int",
    "compare.certify": "bool",
    "oracle.max_n": "int",
    "evaluate.mask": "str",
    "evaluate.k": "int",
    "synth.n_informative": "int",
    "synth.n_noise": "int",
    "synth.samples_per_class": "int",
    "synth.cluster_separation": "float",
    "synth.noise_std": "float",
}

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def _coerce(key: str, raw) -> object:
    """Coerce one config value to its schema type, with a clear error."""
    if raw is None:
        return None
    kind = _SCHEMA[key]
    if kind == "bool":
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str):
            word = raw.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
        raise ValueError(f"config key {key!r}: {raw!r} is not a boolean")
    if kind == "int":
        if isinstance(raw, bool):
            raise ValueError(f"config key {key!r}: {raw!r} is not an integer")
        if isinstance(raw, int):
            return raw
        try:
            return int(str(raw).strip(), 10)
        except ValueError:
            raise ValueError(f"config key {key!r}: {raw!r} is not an integer") from None
    if kind == "float":
        if isinstance(raw, bool):
            raise ValueError(f"config key {key!r}: {raw!r} is not a number")
        if isinstance(raw, (int, float)):
            return float(raw)
        try:
            return float(str(raw).strip())
        except ValueError:
            raise ValueError(f"config key {key!r}: {raw!r} is not a number") from None
    if key == "baselines.kinds" and isinstance(raw, (list, tuple)):
        return ",".join(str(v) for v in raw)
    if not isinstance(raw, str):
        raise ValueError(f"config key {key!r}: expected a string, got {raw!r}")
    return raw


def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    """Turn leftover --key=value / --key value tokens into a config layer."""
    pairs: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ValueError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ValueError(f"flag --{key} needs a value")
            value = tokens[i + 1]
            i += 2
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        pairs[key] = value
    return pairs


def build_config(args, extra_tokens: list[str]) -> dict[str, object]:
    """Merge defaults, the optional config file, and flags, in that order."""
    cfg = dict(DEFAULTS)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        for key, value in loaded.items():
            if key not in DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, value)
    for key in ("data", "seed", "out", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = _coerce(key, value)
    for key, value in _parse_overrides(extra_tokens).items():
        cfg[key] = _coerce(key, value)
    if cfg["workers"] < 0:
        raise ValueError("workers must be non-negative")
    return cfg


def atomic_write_text(path: Path, text: str) -> None:
    """Write text verbatim via a same-directory temp file and rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _kernel_from(cfg) -> KernelConfig:
    return KernelConfig(
        delta=cfg["kernel.delta"],
        per_feature_normalization=cfg["kernel.per_feature_normalization"],
        n_k=cfg["kernel.n_k"],
    )


def _ma_from(cfg) -> MAConfig:
    return MAConfig(
        np=cfg["ma.np"],
        g_max=cfg["ma.g_max"],
        f_min=cfg["ma.f_min"],
        f_max=cfg["ma.f_max"],
        cr_min=cfg["ma.cr_min"],
        cr_max=cfg["ma.cr_max"],
        tl=cfg["ma.tl"],
        ts_iters=cfg["ma.ts_iters"],
        fitness_stop=cfg["ma.fitness_stop"],
        init_neighbors=cfg["ma.init_neighbors"],
        elite_count=cfg["ma.elite_count"],
        seed=cfg["seed"],
    )


def _baseline_from(cfg, kind: str = "BDE") -> BaselineConfig:
    return BaselineConfig(
        kind=kind,
        np=cfg["baselines.np"],
        g_max=cfg["baselines.g_max"],
        ga_crossover=cfg["baselines.ga_crossover"],
        ga_mutation=cfg["baselines.ga_mutation"],
        pso_c1=cfg["baselines.pso_c1"],
        pso_c2=cfg["baselines.pso_c2"],
        pso_inertia=cfg["baselines.pso_inertia"],
        pso_vmax=cfg["baselines.pso_vmax"],
        fitness_stop=cfg["baselines.fitness_stop"],
        seed=cfg["seed"],
    )


def _load_standardized(cfg):
    """Shared pipeline head: load, split, fit z-score on train, apply to both."""
    if cfg["data"] is None:
        raise ValueError("no input file; pass --data")
    ds = load_csv(cfg["data"])
    train, test = split(ds, cfg["train_fraction"], cfg["seed"])
    params = zscore_fit(train)
    return zscore_apply(train, params), zscore_apply(test, params)


def _parse_kinds(cfg) -> list[str]:
    kinds = [k.strip() for k in str(cfg["baselines.kinds"]).split(",") if k.strip()]
    for kind in kinds:
        if kind != "MA" and kind not in BASELINE_KINDS:
            raise ValueError(f"unknown optimizer kind {kind!r}")
    return kinds


def _parse_mask_text(text: str, feature_names) -> "list[int]":
    """Mask from comma-separated feature names, or from hex bits."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if tokens and all(t in feature_names for t in tokens):
        return mask_from_names(tokens, feature_names)
    if len(tokens) == 1:
        try:
            return hex_to_mask(tokens[0], len(feature_names))
        except ValueError:
            pass
    unknown = [t for t in tokens if t not in feature_names]
    raise ValueError(
        f"mask {text!r} matches neither feature names nor hex bits "
        f"(unmatched: {', '.join(unknown) if unknown else text!r})"
    )


def cmd_select(cfg) -> int:
    train, test = _load_standardized(cfg)
    kcfg = _kernel_from(cfg)
    result = run_ma(train, kcfg, _ma_from(cfg), workers=cfg["workers"])
    out = Path(cfg["out"])
    selection = {
        "features": mask_names(result.best_mask, train.feature_names),
        "mask_hex": mask_to_hex(result.best_mask),
        "dimension": popcount(result.best_mask),
        "best_fitness": result.best_fitness,
        "terminated_by": result.terminated_by,
        "total_evaluations": result.total_evaluations,
        "seed": cfg["seed"],
    }
    atomic_write_text(out / "selection.json", _json_text(selection))
    atomic_write_text(
        out / "runlog.jsonl",
        "\n".join(runlog_lines(result.log, include_timing=False)) + "\n",
    )
    report = evaluate_subset(train, test, result.best_mask, k=cfg["evaluate.k"])
    atomic_write_text(out / "metrics.json", _json_text(report_to_dict(report)))
    print(
        f"selected {selection['dimension']} of {train.n_features} features "
        f"(fitness {result.best_fitness:.6f}, {result.terminated_by}); "
        f"wrote selection.json, runlog.jsonl, metrics.json to {out}"
    )
    return 0


def cmd_compare(cfg) -> int:
    train, _ = _load_standardized(cfg)
    kcfg = _kernel_from(cfg)
    kinds = _parse_kinds(cfg)
    optimizers = ["MA"] + [k for k in kinds if k != "MA"]
    runs = cfg["compare.runs"]
    seeds = [cfg["seed"] + r for r in range(runs)]
    reference = None
    if cfg["compare.certify"]:
        reference = exhaustive_best(train, kcfg, max_n=cfg["oracle.max_n"]).best_fitness
    rows = compare(
        train,
        kcfg,
        optimizers,
        seeds=seeds,
        ma_config=_ma_from(cfg),
        baseline_config=_baseline_from(cfg),
        reference_fitness=reference,
        workers=cfg["workers"],
    )
    out = Path(cfg["out"])
    atomic_write_text(out / "compare.csv", compare_csv_text(rows))
    print(f"compared {', '.join(optimizers)} over {len(seeds)} runs; wrote {out / 'compare.csv'}")
    return 0


def cmd_oracle(cfg) -> int:
    train, _ = _load_standardized(cfg)
    result = exhaustive_best(train, _kernel_from(cfg), max_n=cfg["oracle.max_n"])
    out = Path(cfg["out"])
    atomic_write_text(
        out / "oracle.json", _json_text(oracle_to_dict(result, train.feature_names))
    )
    print(
        f"oracle optimum {result.best_fitness:.6f} over {result.evaluated} masks; "
        f"wrote {out / 'oracle.json'}"
    )
    return 0


def cmd_synth(cfg) -> int:
    spec = SynthSpec(
        n_informative=cfg["synth.n_informative"],
        n_noise=cfg["synth.n_noise"],
        samples_per_class=cfg["synth.samples_per_class"],
        cluster_separation=cfg["synth.cluster_separation"],
        noise_std=cfg["synth.noise_std"],
    )
    ds = synth_clusters(spec, cfg["seed"])
    target = Path(cfg["out"]) / "synth.csv"
    atomic_write_text(target, csv_text(ds))
    print(f"wrote {ds.n_samples} rows x {ds.n_features} features to {target}")
    return 0


def cmd_evaluate(cfg) -> int:
    train, test = _load_standardized(cfg)
    if cfg["evaluate.mask"] is None:
        raise ValueError("no mask given; pass --evaluate.mask=<names-or-hex>")
    mask = _parse_mask_text(cfg["evaluate.mask"], train.feature_names)
    report = evaluate_subset(train, test, mask, k=cfg["evaluate.k"])
    out = Path(cfg["out"])
    atomic_write_text(out / "metrics.json", _json_text(report_to_dict(report)))
    print(
        f"evaluated {report.dimension} features: eta {report.eta:.4f}; "
        f"wrote {out / 'metrics.json'}"
    )
    return 0


_COMMANDS = {
    "select": cmd_select,
    "compare": cmd_compare,
    "oracle": cmd_oracle,
    "synth": cmd_synth,
    "evaluate": cmd_evaluate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frsel",
        description="Feature selection with a kernel fuzzy-rough criterion "
        "and a memetic search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("select", "run the memetic search and write the selected subset"),
        ("compare", "run MA against baseline optimizers and tabulate"),
        ("oracle", "exhaustively certify the optimum (small N only)"),
        ("synth", "generate a synthetic benchmark CSV"),
        ("evaluate", "score a given mask with the k-NN harness"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", help="input CSV (header row, one 'label' column)")
        p.add_argument("--config", help="JSON config file with flat dotted keys")
        p.add_argument("--seed", help="base RNG seed")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--workers", help="max concurrent fitness evaluations")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        cfg = build_config(args, extra)
        return _COMMANDS[args.command](cfg)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surface component errors as clean CLI failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
