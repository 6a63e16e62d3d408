"""Batch experiment runner.

A single JSON config drives dataset construction, method training, and one
of four experiments (curve, ood:<tag>, corrupt, surfaces) across a list of
seeds. Results land in the output directory as results.csv (flat records),
results.json (config echo plus per-seed and aggregate records), and, for the
surfaces experiment, one grid CSV per method and seed.

Exit codes: 0 success, 1 config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, ToyConfig, apply_scaler, fit_scaler, generate_toy, grid_2d, load_csv, split
from .errors import ConfigError, DataError, ParameterError, ShapeError, TrainingError, UndefinedMetricError
from .evaluation import (DEFAULT_FRACTIONS, DEFAULT_SEEDS, METHODS, MethodSettings,
                         Records, _scaled, corruption_experiment, curve_experiment,
                         ood_experiment, seed_sweep, toy_surfaces, train_method,
                         train_with_classifier)
from .mlp import TrainConfig
from .rng import SeededRng
from .vae import VaeConfig

EXPERIMENTS = ("curve", "ood", "corrupt", "surfaces")
CSV_HEADER = "experiment,method,seed,context,metric,value"

# Keys a config file may contain; anything else is rejected by name.
KNOWN_KEYS = frozenset({
    "dataset", "experiment", "methods", "seeds", "class_weighting", "platt",
    "out_dir", "label_column", "standardize", "hidden", "dropout_rate", "lr",
    "batch_size", "max_epochs", "patience", "ensemble_size", "mc_passes",
    "logistic_c", "vae_latent", "vae_epochs", "vae_batch_size", "vae_lr",
    "vae_samples", "toy_n_train", "split_fractions", "fractions", "factors",
    "n_corrupt_features", "grid_bounds", "grid_resolution",
})


@dataclass
class ExperimentConfig:
    """Validated configuration with every default resolved."""

    dataset: str
    experiment: str
    ood_tag: str | None
    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    out_dir: str
    platt: bool
    label_column: str
    settings: MethodSettings
    toy_n_train: int
    split_fractions: tuple[float, float, float]
    fractions: tuple[float, ...]
    factors: tuple[float, ...]
    n_corrupt_features: int
    grid_bounds: tuple[tuple[float, float], tuple[float, float]]
    grid_resolution: int
    echo: dict = field(default_factory=dict)

    @property
    def is_toy(self) -> bool:
        return self.dataset.startswith("toy-")

    @property
    def csv_path(self) -> str:
        return self.dataset[len("csv:"):]


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    return raw[key]


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key {key!r} must be true or false, got {value!r}")
    return value


def _as_number(value, key: str, valid=math.isfinite, rule: str = "finite") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not valid(number):
        raise ConfigError(f"key {key!r} must be {rule}, got {value!r}")
    return number


def _as_int(value, key: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key {key!r} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"key {key!r} must be at most {maximum}, got {value}")
    return value


def _as_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key {key!r} must be a string, got {value!r}")
    return value


def _positive(v: float) -> bool:
    return 0 < v < math.inf


def _as_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key {key!r} must be a non-empty list, got {value!r}")
    return value


def _as_numbers(raw: dict, key: str, default, valid, rule: str) -> tuple[float, ...]:
    return tuple(_as_number(v, key, valid, rule)
                 for v in _as_list(raw.get(key, list(default)), key))


def parse_config(raw: dict, seed_override=None, out_override=None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")

    dataset = _require(raw, "dataset")
    if dataset not in ("toy-balanced", "toy-unbalanced") and not (
            isinstance(dataset, str) and dataset.startswith("csv:")):
        raise ConfigError(
            f"key 'dataset' must be toy-balanced, toy-unbalanced or csv:<path>, "
            f"got {dataset!r}")
    is_toy = dataset.startswith("toy-")

    experiment = _require(raw, "experiment")
    ood_tag = None
    if isinstance(experiment, str) and experiment.startswith("ood:"):
        ood_tag = experiment[len("ood:"):]
        if not ood_tag:
            raise ConfigError("key 'experiment': ood needs a group tag, like ood:elective")
        kind = "ood"
    else:
        kind = experiment
    if kind not in EXPERIMENTS or kind == "ood" and ood_tag is None:
        raise ConfigError(
            f"key 'experiment' must be curve, ood:<tag>, corrupt or surfaces, "
            f"got {experiment!r}")
    if kind == "ood" and is_toy:
        raise ConfigError("key 'experiment': ood needs a csv dataset with group columns")

    methods = tuple(_as_list(raw.get("methods", list(METHODS)), "methods"))
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in key 'methods'")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"key 'methods' names a method twice: {list(methods)!r}")

    # A seed outside [0, 2**64) would alias another one's random streams.
    seeds = tuple(_as_int(s, "seeds", 0, 2**64 - 1) for s in (
        seed_override if seed_override is not None
        else _as_list(raw.get("seeds", list(DEFAULT_SEEDS)), "seeds")))
    if not seeds:
        raise ConfigError("key 'seeds' must name at least one seed")

    # Every method default comes from the preset; the config overrides it.
    preset = MethodSettings.toy() if is_toy else MethodSettings()
    mlp, vae = preset.mlp, preset.vae
    hidden = _as_list(raw.get("hidden", list(mlp.hidden)), "hidden")
    patience = raw.get("patience", mlp.patience)
    logistic_c = raw.get("logistic_c", preset.logistic_c)
    try:
        mlp_cfg = TrainConfig(
            hidden=tuple(_as_int(h, "hidden", 1) for h in hidden),
            dropout_rate=_as_number(raw.get("dropout_rate", mlp.dropout_rate), "dropout_rate",
                                    lambda v: 0 <= v < 1, "in [0, 1)"),
            lr=_as_number(raw.get("lr", mlp.lr), "lr", _positive, "positive and finite"),
            batch_size=_as_int(raw.get("batch_size", mlp.batch_size), "batch_size", 1),
            max_epochs=_as_int(raw.get("max_epochs", mlp.max_epochs), "max_epochs", 1),
            patience=None if patience is None else _as_int(patience, "patience", 1))
        vae_cfg = VaeConfig(
            latent_dim=_as_int(raw.get("vae_latent", vae.latent_dim), "vae_latent", 1),
            batch_size=_as_int(raw.get("vae_batch_size", vae.batch_size), "vae_batch_size", 1),
            epochs=_as_int(raw.get("vae_epochs", vae.epochs), "vae_epochs", 1),
            lr=_as_number(raw.get("vae_lr", vae.lr), "vae_lr", _positive, "positive and finite"),
            samples=_as_int(raw.get("vae_samples", vae.samples), "vae_samples", 1))
        settings = MethodSettings(
            mlp=mlp_cfg, vae=vae_cfg,
            ensemble_size=_as_int(raw.get("ensemble_size", preset.ensemble_size),
                                  "ensemble_size", 1),
            mc_passes=_as_int(raw.get("mc_passes", preset.mc_passes), "mc_passes", 1),
            logistic_c=(math.inf if logistic_c is None else _as_number(
                logistic_c, "logistic_c", lambda v: v > 0, "positive")),
            class_weighting=_as_bool(raw.get("class_weighting", preset.class_weighting),
                                     "class_weighting"),
            standardize=_as_bool(raw.get("standardize", preset.standardize), "standardize"))
    except ParameterError as e:
        raise ConfigError(str(e)) from e

    fracs = raw.get("split_fractions", [0.6, 0.2, 0.2])
    if not isinstance(fracs, list) or len(fracs) != 3:
        raise ConfigError(f"key 'split_fractions' must be three numbers, got {fracs!r}")
    split_fractions = tuple(_as_number(f, "split_fractions") for f in fracs)
    if not (all(f > 0 for f in split_fractions) and abs(sum(split_fractions) - 1.0) <= 1e-9):
        raise ConfigError(
            f"key 'split_fractions' must be three positive fractions summing to 1, got {fracs!r}")
    bounds = raw.get("grid_bounds", [[-8.0, 8.0], [-8.0, 8.0]])
    if not (isinstance(bounds, list) and len(bounds) == 2
            and all(isinstance(b, list) and len(b) == 2 for b in bounds)):
        raise ConfigError(f"key 'grid_bounds' must be [[min,max],[min,max]], got {bounds!r}")
    grid_bounds = tuple((_as_number(lo, "grid_bounds"), _as_number(hi, "grid_bounds"))
                        for lo, hi in bounds)
    if any(lo >= hi for lo, hi in grid_bounds):
        raise ConfigError(f"key 'grid_bounds' must have min < max on each axis, got {bounds!r}")

    return ExperimentConfig(
        dataset=dataset, experiment=experiment, ood_tag=ood_tag, methods=methods,
        seeds=seeds,
        out_dir=(str(out_override) if out_override is not None
                 else _as_str(raw.get("out_dir", "results"), "out_dir")),
        platt=_as_bool(raw.get("platt", False), "platt"),
        label_column=_as_str(raw.get("label_column", "label"), "label_column"),
        settings=settings,
        toy_n_train=_as_int(raw.get("toy_n_train", ToyConfig.n_train), "toy_n_train", 2),
        split_fractions=split_fractions,
        fractions=_as_numbers(raw, "fractions", DEFAULT_FRACTIONS,
                              lambda f: 0 < f <= 1, "in (0, 1]"),
        factors=_as_numbers(raw, "factors", (10, 1000), _positive, "positive and finite"),
        n_corrupt_features=_as_int(raw.get("n_corrupt_features", 30), "n_corrupt_features", 1),
        grid_bounds=grid_bounds,
        grid_resolution=_as_int(raw.get("grid_resolution", 50), "grid_resolution", 2),
        echo=raw)


def _seed_data(cfg: ExperimentConfig, full: Dataset | None,
               rng: SeededRng) -> tuple[Dataset, Dataset, Dataset]:
    """Per-seed train/val/test. Toy data is generated fresh (val and test are
    same-size draws from the training distribution); CSV data is re-split."""
    if cfg.is_toy:
        toy = ToyConfig(mode=cfg.dataset[len("toy-"):], n_train=cfg.toy_n_train)
        return (generate_toy(toy, rng.split("train")),
                generate_toy(toy, rng.split("val")),
                generate_toy(toy, rng.split("test")))
    return split(full, cfg.split_fractions, rng.split("split"))


def _surface_records(cfg: ExperimentConfig, train: Dataset, val: Dataset,
                     rng: SeededRng, tables: dict) -> Records:
    """Evaluate grid surfaces for each method; stash tables for later writing."""
    if train.d != 2:
        raise DataError(f"surfaces need a 2-D dataset, got {train.d} features")
    grid = grid_2d(cfg.grid_bounds, cfg.grid_resolution)
    if cfg.settings.standardize:
        scaler = fit_scaler(train)
        train, val = apply_scaler(scaler, train), apply_scaler(scaler, val)
        grid_in = (grid - scaler.mean) / scaler.std
    else:
        grid_in = grid
    records: Records = {}
    for name in cfg.methods:
        fitted = train_with_classifier(name, train, val, cfg.settings, rng)
        surfaces = toy_surfaces(fitted, grid_in)
        tables[name] = (["x1", "x2", *surfaces], np.column_stack([grid, *surfaces.values()]))
        records[(name, "grid", "n_points")] = float(grid.shape[0])
        for c, values in surfaces.items():
            records[(name, "grid", f"{c}_mean")] = float(np.mean(values))
    return records


def _execute(cfg: ExperimentConfig):
    """Run the configured experiment across seeds.

    Returns (sweep, surface_tables) where surface_tables maps
    (method, seed) -> (columns, array) and is empty except for surfaces runs.
    """
    full = None
    if not cfg.is_toy:
        full = load_csv(cfg.csv_path, cfg.label_column)
    surface_tables: dict = {}

    def experiment(rng: SeededRng) -> Records:
        if cfg.experiment == "corrupt":
            train, val, test = _scaled(cfg.settings, *_seed_data(cfg, full, rng))
            fitted = [train_method(m, train, val, cfg.settings, rng.split(m))
                      for m in cfg.methods]
            return corruption_experiment(fitted, test, rng.split("corrupt"),
                                         cfg.factors, cfg.n_corrupt_features)
        if cfg.experiment == "curve":
            train, val, test = _seed_data(cfg, full, rng)
            return curve_experiment(train, val, test, cfg.methods, cfg.settings,
                                    rng.split("curve"), cfg.fractions, cfg.platt)
        if cfg.ood_tag is not None:
            return ood_experiment(full, cfg.ood_tag, cfg.methods, cfg.settings,
                                  rng.split("ood"), cfg.split_fractions)
        # surfaces
        train, val, _ = _seed_data(cfg, full, rng)
        tables: dict = {}
        recs = _surface_records(cfg, train, val, rng.split("surfaces"), tables)
        for name, t in tables.items():
            surface_tables[(name, rng.seed)] = t
        return recs

    return seed_sweep(experiment, cfg.seeds), surface_tables


def format_value(value) -> str:
    """Stable text form: repr for floats (shortest round-trip), 'absent' for None."""
    if value is None:
        return "absent"
    return repr(float(value))


def _write_outputs(cfg: ExperimentConfig, sweep, surface_tables, quiet: bool) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # csv.writer quotes a field holding a comma or a quote, such as a context
    # that names a feature "x,1"; every other field is written as is.
    labelled = [*zip(sweep.seeds, sweep.per_seed), ("mean", sweep.mean), ("std", sweep.std)]
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows((cfg.experiment, method, seed, context, metric, format_value(value))
                         for seed, records in labelled
                         for (method, context, metric), value in records.items())

    def record_list(records: Records) -> list:
        return [{"method": m, "context": c, "metric": k, "value": v}
                for (m, c, k), v in records.items()]

    doc = {
        "toolkit_version": __version__,
        "config": cfg.echo,
        "experiment": cfg.experiment,
        "seeds": list(sweep.seeds),
        "per_seed": [{"seed": s, "records": record_list(r)}
                     for s, r in zip(sweep.seeds, sweep.per_seed)],
        "aggregate": {"mean": record_list(sweep.mean),
                      "std": record_list(sweep.std)},
    }
    (out / "results.json").write_text(json.dumps(doc, indent=2) + "\n",
                                      encoding="utf-8")

    for (name, seed), (columns, table) in surface_tables.items():
        rows = [",".join(columns)]
        rows += [",".join(map(repr, row)) for row in table.tolist()]
        (out / f"surfaces_{name}_seed{seed}.csv").write_text(
            "\n".join(rows) + "\n", encoding="utf-8")

    if not quiet:
        n_files = 2 + len(surface_tables)
        print(f"wrote {n_files} file(s) to {out}")


def _check_out_dir(out_dir: str) -> None:
    """Refuse, before any work, an out_dir that is or lies under a non-directory.

    The nearest existing path of out_dir and its parents must be a
    directory; _write_outputs creates the rest.
    """
    for path in (Path(out_dir), *Path(out_dir).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"key 'out_dir': cannot write to {out_dir!r}: "
                                  f"{str(path)!r} is not a directory")
            return


def run(config_path, seed_override=None, out_override=None, quiet: bool = False) -> int:
    """Execute one config file; returns the process exit code."""
    try:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from e
        try:
            raw = json.loads(text)
        except ValueError as e:  # bad JSON, or an integer literal too long to read
            raise ConfigError(f"config is not valid JSON: {e}") from e
        cfg = parse_config(raw, seed_override, out_override)
        _check_out_dir(cfg.out_dir)
        sweep, surface_tables = _execute(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 3
    except (DataError, ShapeError, ParameterError, UndefinedMetricError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2

    _write_outputs(cfg, sweep, surface_tables, quiet)
    return 0


def _parse_seed_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--seed-override must be integers, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tabuq",
                                     description="Run an uncertainty experiment from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed-override",
                        help="comma-separated seeds replacing the config's list")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    seeds = None
    if args.seed_override is not None:
        try:
            seeds = _parse_seed_list(args.seed_override)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return 1
    return run(args.config, seed_override=seeds, out_override=args.out,
               quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
