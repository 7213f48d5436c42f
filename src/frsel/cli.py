"""Command-line front end.

Subcommands: select, compare, oracle, synth, evaluate. Configuration is one
flat dotted-key namespace with three layers, later ones winning: built-in
defaults, a JSON config file (--config), command-line flags including dotted
overrides such as --ma.np=40. The kernel.*, ma.*, baselines.* and synth.*
keys are the fields of the config dataclasses. Unknown keys are rejected.
All output files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .baselines import BaselineConfig, check_kinds, compare, compare_csv_text
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
from .oracle import DEFAULT_MAX_N, exhaustive_best, oracle_to_dict

# Sections whose keys are the fields of a config dataclass: "<section>.<field>",
# with the field's default and annotated type. The per-run fields are not keys:
# the top-level "seed" sets every seed, and "baselines.kinds" picks the kinds.
_SECTIONS = {"kernel": KernelConfig, "ma": MAConfig, "baselines": BaselineConfig, "synth": SynthSpec}
_PER_RUN = frozenset({"seed", "kind"})

# key -> (default, type); the keys that no config dataclass holds come first.
_SCHEMA: dict[str, tuple[object, type]] = {
    "data": (None, str),
    "train_fraction": (0.66, float),
    "seed": (0, int),
    "out": (".", str),
    "workers": (0, int),
    "baselines.kinds": ("GA,BPSO,BDE", str),
    "compare.runs": (20, int),
    "compare.certify": (False, bool),
    "oracle.max_n": (DEFAULT_MAX_N, int),
    "evaluate.mask": (None, str),
    "evaluate.k": (5, int),
}
_SCHEMA.update(
    (f"{prefix}.{f.name}", (f.default, get_type_hints(cls)[f.name]))
    for prefix, cls in _SECTIONS.items()
    for f in fields(cls)
    if f.name not in _PER_RUN
)

DEFAULTS: dict[str, object] = {key: default for key, (default, _) in _SCHEMA.items()}

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def _coerce(key: str, raw) -> object:
    """Coerce one config value to its schema type, with a clear error.

    null is accepted only for the keys whose default is null.
    """
    default, kind = _SCHEMA[key]
    if raw is None:
        if default is None:
            return None
        raise ValueError(f"config key {key!r} cannot be null")
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, str):
            word = raw.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
        raise ValueError(f"config key {key!r}: {raw!r} is not a boolean")
    if kind is int:
        if isinstance(raw, bool):
            raise ValueError(f"config key {key!r}: {raw!r} is not an integer")
        if isinstance(raw, int):
            return raw
        try:
            return int(str(raw).strip(), 10)
        except ValueError:
            raise ValueError(f"config key {key!r}: {raw!r} is not an integer") from None
    if kind is float:
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
    for key in ("seed", "workers"):
        if cfg[key] < 0:
            raise ValueError(f"{key} must be non-negative")
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


def _section(cfg, prefix: str, **per_run):
    """The config object of one section, from its keys plus the per-run fields."""
    cls = _SECTIONS[prefix]
    values = {f.name: cfg[f"{prefix}.{f.name}"] for f in fields(cls) if f.name not in _PER_RUN}
    return cls(**values, **per_run)


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
    check_kinds(kinds)
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
    kcfg = _section(cfg, "kernel")
    result = run_ma(train, kcfg, _section(cfg, "ma", seed=cfg["seed"]), workers=cfg["workers"])
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
    # Every setting is checked before the certifying oracle runs.
    kinds = _parse_kinds(cfg)
    optimizers = ["MA"] + [k for k in kinds if k != "MA"]
    if cfg["compare.runs"] < 1:
        raise ValueError("compare.runs must be at least 1")
    seeds = [cfg["seed"] + r for r in range(cfg["compare.runs"])]
    kcfg = _section(cfg, "kernel")
    ma_config = _section(cfg, "ma", seed=cfg["seed"])
    baseline_config = _section(cfg, "baselines", seed=cfg["seed"])
    train, _ = _load_standardized(cfg)
    reference = None
    if cfg["compare.certify"]:
        reference = exhaustive_best(train, kcfg, max_n=cfg["oracle.max_n"]).best_fitness
    rows = compare(
        train,
        kcfg,
        optimizers,
        seeds=seeds,
        ma_config=ma_config,
        baseline_config=baseline_config,
        reference_fitness=reference,
        workers=cfg["workers"],
    )
    out = Path(cfg["out"])
    atomic_write_text(out / "compare.csv", compare_csv_text(rows))
    print(f"compared {', '.join(optimizers)} over {len(seeds)} runs; wrote {out / 'compare.csv'}")
    return 0


def cmd_oracle(cfg) -> int:
    train, _ = _load_standardized(cfg)
    result = exhaustive_best(train, _section(cfg, "kernel"), max_n=cfg["oracle.max_n"])
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
    ds = synth_clusters(_section(cfg, "synth"), cfg["seed"])
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
