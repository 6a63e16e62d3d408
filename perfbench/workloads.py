"""The three benchmark workloads: their inputs and their output checks.

Every input is written here from the workload seed; the program under test
receives only a config file and, for the CSV workloads, the data file.
Each check returns a list of failure messages, empty when the output is
correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CSV_ROWS = 10_000
CSV_FEATURES = 10
CSV_POSITIVE_FRACTION = 0.15
METHODS = ("single-nn", "nn-ensemble", "mc-dropout", "bootstrap-lr", "vae")
# Two seeds per run rather than the default five keep one run near 3 s, so
# that a measurement window holds enough runs for a steady median.
SURFACE_SEEDS = 2
GRID_RESOLUTION = 50
# The CSV defaults (100 MLP epochs with patience 2, 30 VAE epochs) make one
# run take 25 s or more, and early stopping makes the training work depend on
# the seed: the fits of one curve run ended after 87 to 160 epochs in total.
# Every MLP fit here runs exactly CSV_MAX_EPOCHS epochs (patience is larger,
# so it never stops early, but each epoch still runs its validation check)
# and the VAE trains CSV_VAE_EPOCHS epochs. The work is then the same for
# every seed, and one run is short enough that a window holds several.
CSV_MAX_EPOCHS = 5
CSV_PATIENCE = CSV_MAX_EPOCHS + 1
CSV_VAE_EPOCHS = 5
CSV_TRAINING = {"max_epochs": CSV_MAX_EPOCHS, "patience": CSV_PATIENCE,
                "vae_epochs": CSV_VAE_EPOCHS}


def write_synthetic_csv(path: Path, seed: int) -> None:
    """10k x 10 synthetic CSV with 15% positives, from the program's own generator."""
    from tabuq import SeededRng, generate_synthetic

    data = generate_synthetic(SeededRng(seed), n=CSV_ROWS, d=CSV_FEATURES,
                              positive_fraction=CSV_POSITIVE_FRACTION)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*data.feature_names, "label"])
        for x, y in zip(data.features.tolist(), data.labels.tolist()):
            writer.writerow([*map(repr, x), y])


def read_results(out_dir: Path) -> tuple[list[dict], list[str]]:
    """Rows of results.csv as dicts, plus failures for rows without 6 fields."""
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    failures = [f"results.csv line {i + 1} has {len(r)} fields, expected 6"
                for i, r in enumerate(rows) if len(r) != 6]
    if failures or not rows:
        return [], failures or ["results.csv is empty"]
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body], []


def _values(rows: list[dict], metric: str) -> dict[tuple[str, str], float]:
    """(method, context) -> value for the per-seed rows of one metric."""
    return {(r["method"], r["context"]): float(r["value"]) for r in rows
            if r["metric"] == metric and r["seed"] not in ("mean", "std")
            and r["value"] != "absent"}


def check_curve(rows: list[dict], out_dir: Path) -> list[str]:
    failures = []
    auc = _values(rows, "auc")
    platt_a = _values(rows, "a")
    for m in METHODS:
        value = auc.get((m, "f=1.00"))
        if value is None or not value >= 0.8:
            failures.append(f"curve: {m} f=1.00 AUC is {value}, expected >= 0.8")
        a = platt_a.get((m, "platt"))
        if a is None or not a > 0:
            failures.append(f"curve: {m} Platt slope a is {a}, expected > 0")
    return failures


def check_corrupt(rows: list[dict], out_dir: Path) -> list[str]:
    failures = []
    mean_auc = _values(rows, "detection_auc_mean")
    for m in METHODS:
        base = mean_auc.get((m, "factor=1"))
        if base != 0.5:
            failures.append(f"corrupt: {m} factor-1 detection AUC is {base}, expected exactly 0.5")
    high, mid = mean_auc.get(("vae", "factor=1000")), mean_auc.get(("vae", "factor=10"))
    if high is None or mid is None or not (high >= 0.9 and high > mid):
        failures.append(f"corrupt: vae detection AUC is {mid} at factor 10 and {high} "
                        "at factor 1000, expected >= 0.9 and rising")
    return failures


def check_surfaces(rows: list[dict], out_dir: Path) -> list[str]:
    grids = sorted(out_dir.glob("surfaces_*_seed*.csv"))
    expected = len(METHODS) * SURFACE_SEEDS
    failures = [] if len(grids) == expected else [
        f"surfaces: {len(grids)} grid files, expected {expected}"]
    for path in grids:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *body = list(csv.reader(fh))
        if len(body) != GRID_RESOLUTION ** 2:
            failures.append(f"{path.name}: {len(body)} rows, expected {GRID_RESOLUTION ** 2}")
        if "probability" not in header:
            failures.append(f"{path.name}: no probability column")
            continue
        col = header.index("probability")
        bad = [r[col] for r in body if not 0.0 <= float(r[col]) <= 1.0]
        if bad:
            failures.append(f"{path.name}: probability {bad[0]} outside [0, 1]")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    uses_csv: bool
    config: Callable[[int], dict]
    check: Callable[[list[dict], Path], list[str]]
    # (batch, hidden widths, steps) of the reference loop in timed_cli.py:
    # about 0.2 s (toy) or 0.4 s (CSV) of steps at a batch size the workload uses.
    reference: tuple[int, tuple[int, ...], int]

    def write_inputs(self, run_dir: Path, seed: int) -> Path:
        """Write the config (and the CSV, if any) into run_dir; return the config path."""
        if self.uses_csv:
            write_synthetic_csv(run_dir / "data.csv", seed)
        path = run_dir / "config.json"
        path.write_text(json.dumps(self.config(seed), indent=2) + "\n", encoding="utf-8")
        return path


WORKLOADS = {w.name: w for w in (
    Workload(
        name="curve-csv10k",
        uses_csv=True,
        config=lambda seed: {"dataset": "csv:data.csv", "experiment": "curve",
                             "seeds": [seed], "platt": True, **CSV_TRAINING},
        check=check_curve,
        reference=(2000, (100, 100), 40)),
    Workload(
        name="corrupt-csv10k",
        uses_csv=True,
        # One feature rather than the CLI's 30 keeps one run short:
        # 1 + 3 factors x 1 feature = 4 scoring calls per method.
        config=lambda seed: {"dataset": "csv:data.csv", "experiment": "corrupt",
                             "seeds": [seed], "factors": [1, 10, 1000],
                             "n_corrupt_features": 1, **CSV_TRAINING},
        check=check_corrupt,
        reference=(2000, (100, 100), 40)),
    Workload(
        name="surfaces-toy",
        uses_csv=False,
        config=lambda seed: {"dataset": "toy-unbalanced", "experiment": "surfaces",
                             "class_weighting": True, "grid_resolution": GRID_RESOLUTION,
                             "seeds": [SURFACE_SEEDS * seed + i
                                       for i in range(SURFACE_SEEDS)]},
        check=check_surfaces,
        reference=(8, (5,), 2500)),
)}


def check_outputs(workload: Workload, out_dir: Path) -> list[str]:
    """Every check for one finished run: results.csv shape, then the workload's own."""
    if not (out_dir / "results.csv").is_file():
        return ["results.csv was not written"]
    rows, failures = read_results(out_dir)
    return failures or workload.check(rows, out_dir)

