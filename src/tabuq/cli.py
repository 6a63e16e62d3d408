"""Batch experiment runner.

A single JSON config drives dataset construction, method training, and one
of four experiments (curve, ood:<tag>, corrupt, surfaces) across a list of
seeds. Each key is checked by its row of KEYS; a key the config leaves out
takes its default from ExperimentConfig or from the dataset's MethodSettings
preset. Results land in the output directory as results.csv (flat records),
results.json (the config echo, the resolved settings the run used, and
per-seed and aggregate records), and, for the surfaces experiment, one grid
CSV per method and seed.

Exit codes: 0 success (or --help), 1 config error or bad command line, 2 data
error, 3 training failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, pin_blas_threads
from .data import (Dataset, ToyConfig, apply_scaler, exclude_group, fit_scaler, generate_toy,
                   grid_2d, load_csv, split)
from .errors import ConfigError, DataError, ParameterError, ShapeError, TrainingError, UndefinedMetricError
from .evaluation import (DEFAULT_FACTORS, DEFAULT_FRACTIONS, DEFAULT_N_CORRUPT_FEATURES,
                         DEFAULT_SEEDS, DEFAULT_SPLIT_FRACTIONS, METHODS, MethodSettings,
                         Records, corruption_experiment, curve_experiment,
                         factor_context, fraction_context, ood_experiment, seed_groups,
                         seed_sweep, toy_surfaces, train_methods)
from .rng import SeededRng

EXPERIMENTS = ("curve", "ood", "corrupt", "surfaces")
PAIRED = ("curve", "surfaces")  # the experiments whose VAE gets a classifier
CSV_HEADER = "experiment,method,seed,context,metric,value"

# Caps on the sizes a config may ask for, so that a mistyped size is a config
# error and not an allocation failure. At its cap, each keeps the largest array
# it sizes within 800 MB (one network's weights between adjacent hidden layers
# at MAX_LAYER_WEIGHTS), at CSV defaults on 10,000 rows of 10 features.
MAX_WIDTH = 100_000
MAX_LAYER_WEIGHTS = 100_000_000


@dataclass
class ExperimentConfig:
    """Validated configuration; a key left out takes its default here or in the preset."""

    dataset: str
    experiment: str
    settings: MethodSettings
    methods: tuple[str, ...] = METHODS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    out_dir: str = "results"
    platt: bool = False
    label_column: str = "label"
    toy_n_train: int = ToyConfig.n_train
    split_fractions: tuple[float, float, float] = DEFAULT_SPLIT_FRACTIONS
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    factors: tuple[float, ...] = DEFAULT_FACTORS
    n_corrupt_features: int = DEFAULT_N_CORRUPT_FEATURES
    grid_bounds: tuple[tuple[float, float], tuple[float, float]] = ((-8.0, 8.0), (-8.0, 8.0))
    grid_resolution: int = 50
    echo: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The experiment without its group tag: curve, ood, corrupt or surfaces."""
        return "ood" if self.experiment.startswith("ood:") else self.experiment

    @property
    def ood_tag(self) -> str | None:
        return self.experiment[len("ood:"):] if self.kind == "ood" else None

    @property
    def is_toy(self) -> bool:
        return self.dataset.startswith("toy-")

    @property
    def csv_path(self) -> str:
        return self.dataset[len("csv:"):]

    @property
    def resolved(self) -> dict:
        """The config of every setting the run used, out_dir aside; no penalty is null."""
        s = self.settings
        parts = {"run": self, "method": s, "mlp": s.mlp, "vae": s.vae}
        doc = {"dataset": self.dataset, "experiment": self.experiment}
        for key, (part, name, *_) in KEYS.items():
            if key != "out_dir":  # where the files landed, not what ran
                value = getattr(parts[part], name)
                doc[key] = None if value == math.inf else value
        return doc


def _typed(value, key: str, kind: type, rule: str):
    if not isinstance(value, kind):
        raise ConfigError(f"key {key!r} must be {rule}, got {value!r}")
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


def _as_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key {key!r} must be a non-empty list, got {value!r}")
    return value


def _distinct(values: tuple, key: str, context) -> tuple:
    """values, or ConfigError if two share a context(value): one record."""
    first = {}
    for v in values:
        ctx = context(v)
        if ctx in first:
            raise ConfigError(f"key {key!r}: {first[ctx]!r} and {v!r} both give {ctx}")
        first[ctx] = v
    return values


def _seeds(values, key: str) -> tuple[int, ...]:
    # A seed outside [0, 2**64) would alias another one's random streams.
    seeds = tuple(_as_int(s, key, 0, 2**64 - 1) for s in values)
    if not seeds:
        raise ConfigError(f"key {key!r} must name at least one seed")
    return _distinct(seeds, key, lambda s: f"seed {s}")


def _numbers(value, key: str, valid, rule: str, context) -> tuple[float, ...]:
    return _distinct(tuple(_as_number(v, key, valid, rule) for v in _as_list(value, key)),
                     key, context)


def _methods(value, key: str) -> tuple[str, ...]:
    methods = tuple(_as_list(value, key))
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in key {key!r}")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"key {key!r} names a method twice: {list(methods)!r}")
    return methods


def _hidden(value, key: str) -> tuple[int, ...]:
    hidden = tuple(_as_int(h, key, 1, MAX_WIDTH) for h in _as_list(value, key))
    for a, b in zip(hidden, hidden[1:]):
        if a * b > MAX_LAYER_WEIGHTS:
            raise ConfigError(f"key {key!r} allows at most {MAX_LAYER_WEIGHTS} weights between "
                              f"adjacent hidden layers, got {a} x {b}")
    return hidden


def _split_fractions(value, key: str) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"key {key!r} must be three numbers, got {value!r}")
    fractions = tuple(_as_number(f, key) for f in value)
    if not (all(f > 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ConfigError(
            f"key {key!r} must be three positive fractions summing to 1, got {value!r}")
    return fractions


def _grid_bounds(value, key: str) -> tuple[tuple[float, float], tuple[float, float]]:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(b, list) and len(b) == 2 for b in value)):
        raise ConfigError(f"key {key!r} must be [[min,max],[min,max]], got {value!r}")
    bounds = tuple((_as_number(lo, key), _as_number(hi, key)) for lo, hi in value)
    # Of finite floats, hi - lo > 0 exactly when hi > lo; an infinite span overflows the grid.
    if not all(0 < hi - lo < math.inf for lo, hi in bounds):
        raise ConfigError(f"key {key!r} must have 0 < max - min < inf on each axis, got {value!r}")
    return bounds


POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")

# Every optional key: the part it sets (the run's ExperimentConfig, or the
# dataset's MethodSettings preset, its mlp or its vae), that part's field, and
# the check(value, key, *args) that makes the field's value. Checked in order.
KEYS = {
    "methods": ("run", "methods", _methods),
    "seeds": ("run", "seeds", lambda v, key: _seeds(_as_list(v, key), key)),
    "out_dir": ("run", "out_dir", _typed, str, "a string"),
    "hidden": ("mlp", "hidden", _hidden),
    "dropout_rate": ("mlp", "dropout_rate", _as_number, lambda v: 0 <= v < 1, "in [0, 1)"),
    "lr": ("mlp", "lr", _as_number, *POSITIVE),
    "batch_size": ("mlp", "batch_size", _as_int, 1),
    "max_epochs": ("mlp", "max_epochs", _as_int, 1),
    "patience": ("mlp", "patience", lambda v, key: None if v is None else _as_int(v, key, 1)),
    "vae_latent": ("vae", "latent_dim", _as_int, 1, MAX_WIDTH),
    "vae_batch_size": ("vae", "batch_size", _as_int, 1),
    "vae_epochs": ("vae", "epochs", _as_int, 1),
    "vae_lr": ("vae", "lr", _as_number, *POSITIVE),
    "vae_samples": ("vae", "samples", _as_int, 1, 500),  # (rows, samples, 2 * features)
    "ensemble_size": ("method", "ensemble_size", _as_int, 1, 3_000),  # (members, rows, 26 B)
    "mc_passes": ("method", "mc_passes", _as_int, 1, 10_000),  # (passes, rows)
    # A config says "no penalty" as null, the toy preset as math.inf.
    "logistic_c": ("method", "logistic_c", lambda v, key: math.inf if v is None else _as_number(
        v, key, POSITIVE[0], "null or positive and finite")),
    "class_weighting": ("method", "class_weighting", _typed, bool, "true or false"),
    "standardize": ("method", "standardize", _typed, bool, "true or false"),
    "split_fractions": ("run", "split_fractions", _split_fractions),
    "grid_bounds": ("run", "grid_bounds", _grid_bounds),
    "platt": ("run", "platt", _typed, bool, "true or false"),
    "label_column": ("run", "label_column", _typed, str, "a string"),
    "toy_n_train": ("run", "toy_n_train", _as_int, 2, 1_000_000),  # (rows, widest hidden)
    "fractions": ("run", "fractions", _numbers, lambda f: 0 < f <= 1, "in (0, 1]", fraction_context),
    "factors": ("run", "factors", _numbers, *POSITIVE, factor_context),
    "n_corrupt_features": ("run", "n_corrupt_features", _as_int, 1),
    "grid_resolution": ("run", "grid_resolution", _as_int, 2, 1_000),  # (points, widest hidden)
}

# Keys a config file may contain; anything else is rejected by name.
KNOWN_KEYS = frozenset({"dataset", "experiment", *KEYS})


def parse_config(raw: dict, seed_override=None, out_override=None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(raw) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    for key in ("dataset", "experiment"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    dataset, experiment = raw["dataset"], raw["experiment"]
    if dataset not in ("toy-balanced", "toy-unbalanced") and not (
            isinstance(dataset, str) and dataset.startswith("csv:")):
        raise ConfigError(
            f"key 'dataset' must be toy-balanced, toy-unbalanced or csv:<path>, "
            f"got {dataset!r}")
    is_toy = dataset.startswith("toy-")

    kind = "ood" if isinstance(experiment, str) and experiment.startswith("ood:") else experiment
    if experiment == "ood:":
        raise ConfigError("key 'experiment': ood needs a group tag, like ood:elective")
    if kind not in EXPERIMENTS or experiment == "ood":
        raise ConfigError(
            f"key 'experiment' must be curve, ood:<tag>, corrupt or surfaces, "
            f"got {experiment!r}")
    if kind == "ood" and is_toy:
        raise ConfigError("key 'experiment': ood needs a csv dataset with group columns")

    given = {"run": {}, "method": {}, "mlp": {}, "vae": {}}
    for key, (part, name, check, *args) in KEYS.items():
        if key in raw:
            given[part][name] = check(raw[key], key, *args)
    # results.json echoes the config, so its own seeds and out_dir are
    # checked even where a flag overrides them.
    if seed_override is not None:
        given["run"]["seeds"] = _seeds(seed_override, "seeds")
    if out_override is not None:
        given["run"]["out_dir"] = str(out_override)

    preset = MethodSettings.toy() if is_toy else MethodSettings()
    settings = replace(preset, mlp=replace(preset.mlp, **given["mlp"]),
                       vae=replace(preset.vae, **given["vae"]), **given["method"])
    return ExperimentConfig(dataset, experiment, settings, echo=raw, **given["run"])


def _seed_data(cfg: ExperimentConfig, full: Dataset | None, rng: SeededRng) -> list[Dataset]:
    """One seed's train, val and held-out sets (test; test and the tagged rows
    for ood; the grid for surfaces), scaled on train with standardize. Toy data
    is drawn on rng/train, rng/val and rng/test; CSV data is split on
    rng/split, or for ood its untagged rows on rng/ood/split."""
    if cfg.is_toy:
        toy = ToyConfig(mode=cfg.dataset[len("toy-"):], n_train=cfg.toy_n_train)
        parts = [generate_toy(toy, rng.split(name)) for name in ("train", "val", "test")]
    elif cfg.kind == "ood":
        full, ood = exclude_group(full, cfg.ood_tag)
        parts = [*split(full, cfg.split_fractions, rng.split("ood").split("split")), ood]
    else:
        parts = list(split(full, cfg.split_fractions, rng.split("split")))
    if cfg.kind == "surfaces":
        if parts[0].d != 2:
            raise DataError(f"surfaces need a 2-D dataset, got {parts[0].d} features")
        grid = grid_2d(cfg.grid_bounds, cfg.grid_resolution)
        parts[2] = Dataset(grid, np.zeros(len(grid)), parts[0].feature_names)
    if cfg.settings.standardize:
        scaler = fit_scaler(parts[0])
        parts = [apply_scaler(scaler, d) for d in parts]
    return parts


def _surface_records(methods, grid: np.ndarray, seed: int, tables: dict) -> Records:
    """Score each method on the grid, and stash its (surface names, (points,
    surfaces) array) in tables under (method, seed) for writing."""
    records: Records = {}
    for fitted in methods:
        surfaces = toy_surfaces(fitted, grid)
        tables[(fitted.name, seed)] = (list(surfaces), np.column_stack(list(surfaces.values())))
        records[(fitted.name, "grid", "n_points")] = float(grid.shape[0])
        for c, values in surfaces.items():
            records[(fitted.name, "grid", f"{c}_mean")] = float(np.mean(values))
    return records


def _execute(cfg: ExperimentConfig):
    """Per seed: make and scale the data, fit the methods once on rng/<kind>
    (corrupt: on the seed's rng; paired for curve and surfaces), and score
    them. A seed's group (evaluation.seed_groups, by its training rows) is
    fitted when its first seed is reached, in one train_methods call, which
    stacks the group's networks in one train_mlp call. If making a group's
    data or fitting it raises, each of its seeds is made and fitted alone, so
    that a run raises what the seeds one at a time raise, in their order.
    Returns (sweep, surface_tables), the latter mapping (method, seed) to
    (surface names, array) for surfaces runs and empty otherwise."""
    full = None if cfg.is_toy else load_csv(cfg.csv_path, cfg.label_column)
    surface_tables: dict = {}
    kind = cfg.kind
    fitted = {}  # seed -> (its val and held-out sets, its methods), until it is scored
    alone = set()  # the seeds of a group whose data or fit raised

    def fit(seeds, first) -> dict:
        """Each seed's val and held-out sets and methods; first is seeds[0]'s data."""
        data = [first, *(_seed_data(cfg, full, SeededRng(s)) for s in seeds[1:])]
        fits = [(train, val, SeededRng(s) if kind == "corrupt" else SeededRng(s).split(kind))
                for s, (train, val, *_) in zip(seeds, data)]
        methods = train_methods(cfg.methods, fits, cfg.settings, paired=kind in PAIRED)
        return {s: (parts[1:], m) for s, parts, m in zip(seeds, data, methods)}

    def experiment(rng: SeededRng) -> Records:
        if rng.seed not in fitted:
            first = _seed_data(cfg, full, rng)
            groups = seed_groups(cfg.methods, cfg.settings, kind in PAIRED, cfg.seeds, first[0].n)
            group = (rng.seed,) if rng.seed in alone else next(g for g in groups if rng.seed in g)
            try:
                fitted.update(fit(group, first))
            except Exception:  # each seed alone raises its own error, in order
                if len(group) == 1:
                    raise
                alone.update(group)
                fitted.update(fit((rng.seed,), first))
        (val, *held_out), methods = fitted.pop(rng.seed)
        if kind == "curve":
            return curve_experiment(methods, val, *held_out, cfg.fractions, cfg.platt)
        if kind == "ood":
            return ood_experiment(methods, *held_out, cfg.ood_tag)
        if kind == "corrupt":
            return corruption_experiment(methods, *held_out, rng.split("corrupt"),
                                         cfg.factors, cfg.n_corrupt_features)
        grid, = held_out
        return _surface_records(methods, grid.features, rng.seed, surface_tables)

    return seed_sweep(experiment, cfg.seeds), surface_tables


def format_value(value) -> str:
    """Stable text form: repr for floats (shortest round-trip), 'absent' for None."""
    if value is None:
        return "absent"
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    # csv.writer quotes a field holding a comma or a quote, such as a context
    # that names a feature "x,1", and writes a float as its repr.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# _write_grid formats this many rows at a time.
GRID_BLOCK_ROWS = 256


def _write_grid(path: Path, columns, grid_text: list[str], table: np.ndarray) -> None:
    """A surfaces CSV: csv.writer's header, then per grid point its cached
    "x1,x2," text and its row of table, each float as its repr. A block of
    GRID_BLOCK_ROWS rows is one %-format (%r is repr) over a flat list of
    their text and values, so only one block's floats exist as objects. A
    table of another length than grid_text raises ValueError."""
    width = table.shape[1] + 1
    row = "%s" + ",".join(["%r"] * (width - 1)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["x1", "x2", *columns])
        for lo in range(0, len(table), GRID_BLOCK_ROWS):
            block = table[lo:lo + GRID_BLOCK_ROWS]
            cells = [None] * (len(block) * width)
            cells[::width] = grid_text[lo:lo + GRID_BLOCK_ROWS]
            for j in range(1, width):
                cells[j::width] = block[:, j - 1].tolist()
            fh.write(row * len(block) % tuple(cells))


def _write_outputs(cfg: ExperimentConfig, sweep, surface_tables, quiet: bool) -> None:
    labelled = [*zip(sweep.seeds, sweep.per_seed), ("mean", sweep.mean), ("std", sweep.std)]
    # results.json is strict JSON, which has no NaN or infinity.
    for seed, records in labelled:
        for (method, context, metric), value in records.items():
            if value is not None and not math.isfinite(value):
                raise DataError(f"seed {seed}: method {method!r}, context {context!r}, "
                                f"metric {metric!r} is {value!r}, which JSON cannot hold")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write_csv(out / "results.csv", CSV_HEADER.split(","),
               ((cfg.experiment, method, seed, context, metric, format_value(value))
                for seed, records in labelled
                for (method, context, metric), value in records.items()))

    def record_list(records: Records) -> list:
        return [{"method": m, "context": c, "metric": k, "value": v}
                for (m, c, k), v in records.items()]

    doc = {
        "toolkit_version": __version__,
        "config": cfg.echo,
        "resolved": cfg.resolved,
        "experiment": cfg.experiment,
        "seeds": list(sweep.seeds),
        "per_seed": [{"seed": s, "records": record_list(r)}
                     for s, r in zip(sweep.seeds, sweep.per_seed)],
        "aggregate": {"mean": record_list(sweep.mean),
                      "std": record_list(sweep.std)},
    }
    (out / "results.json").write_text(json.dumps(doc, indent=2) + "\n",
                                      encoding="utf-8")

    # Every table shares the grid's x1,x2 columns, so their text is made once;
    # repr gives the bytes csv.writer writes for a float.
    grid_text = [f"{x1!r},{x2!r}," for x1, x2 in
                 grid_2d(cfg.grid_bounds, cfg.grid_resolution).tolist()] if surface_tables else []
    for (name, seed), (columns, table) in surface_tables.items():
        _write_grid(out / f"surfaces_{name}_seed{seed}.csv", columns, grid_text, table)

    if not quiet:
        n_files = 2 + len(surface_tables)
        print(f"wrote {n_files} file(s) to {out}")


def _out_dir_error(out_dir: str, reason) -> ConfigError:
    return ConfigError(f"key 'out_dir': cannot write to {out_dir!r}: {reason}")


def _check_out_dir(out_dir: str) -> None:
    """Refuse, before any work, an out_dir that cannot be made: one that is or
    lies under a non-directory, cannot be looked up (a name too long, say) or
    cannot be created. The missing directories are made, parents first, and
    removed deepest first, so none is left behind; _write_outputs makes them."""
    target, missing = Path(os.path.normpath(out_dir)), []
    for path in (target, *target.parents):
        try:
            exists = path.exists()
        except OSError as e:
            raise _out_dir_error(out_dir, e.strerror or e) from e
        if exists:
            if not path.is_dir():
                raise _out_dir_error(out_dir, f"{str(path)!r} is not a directory")
            break
        missing.append(path)
    made = []
    try:
        for path in reversed(missing):
            path.mkdir()
            made.append(path)
    except OSError as e:
        raise _out_dir_error(out_dir, e.strerror or e) from e
    finally:
        for path in reversed(made):
            path.rmdir()


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
        try:
            _write_outputs(cfg, sweep, surface_tables, quiet)
        except OSError as e:  # out_dir passed the check but cannot be written
            raise _out_dir_error(cfg.out_dir, e.strerror or e) from e
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 3
    except (DataError, ShapeError, ParameterError, UndefinedMetricError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    return 0


def _parse_seed_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be integers, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tabuq",
                                     description="Run an uncertainty experiment from a JSON config.")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed-override", type=_parse_seed_list,
                        help="comma-separated seeds replacing the config's list")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help and 2 on a bad command line
        return 0 if e.code == 0 else 1
    pin_blas_threads()
    return run(args.config, seed_override=args.seed_override, out_override=args.out,
               quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
