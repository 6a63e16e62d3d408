"""Datasets: synthetic generators, CSV ingestion, scaling, splitting, resampling.

A Dataset is an immutable bundle of a float64 feature matrix, binary labels,
feature names, and boolean group masks, one row entry per tag. Groups are
metadata for holdout experiments; they are never exposed to models as
features.
"""

from __future__ import annotations

import codecs
import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .rng import SeededRng

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    groups: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim={features.ndim}")
        if labels.shape != (features.shape[0],):
            raise ShapeError(
                f"labels shape {labels.shape} does not match {features.shape[0]} rows")
        if labels.size and not np.isin(labels, (0, 1)).all():
            bad = labels[~np.isin(labels, (0, 1))][0]
            raise DataError(f"labels must be 0 or 1, found {bad}")
        names = tuple(self.feature_names)
        if len(names) != features.shape[1]:
            raise ShapeError(
                f"{len(names)} feature names for {features.shape[1]} columns")
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        n = features.shape[0]
        groups = {tag: np.asarray(mask, dtype=bool) for tag, mask in self.groups.items()}
        for tag, mask in groups.items():
            if mask.shape != labels.shape:
                raise ShapeError(f"group {tag!r} mask shape {mask.shape} for {n} rows")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "groups", groups)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset (or resample) by integer indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names,
                       {tag: mask[idx] for tag, mask in self.groups.items()})

    def with_features(self, features: np.ndarray) -> "Dataset":
        """Same rows and metadata with a replaced feature matrix."""
        return Dataset(features, self.labels, self.feature_names, self.groups)


@dataclass(frozen=True)
class StandardScaler:
    mean: np.ndarray
    std: np.ndarray


@dataclass(frozen=True)
class ToyConfig:
    """Two-Gaussian 2-D toy problem of n_train rows; see generate_toy."""

    mode: str = "balanced"
    n_train: int = 200

    def __post_init__(self):
        if self.mode not in ("balanced", "unbalanced"):
            raise ParameterError(f"toy mode must be balanced or unbalanced, got {self.mode!r}")
        if self.n_train < 2:
            raise ParameterError(f"n_train must be at least 2, got {self.n_train}")


def generate_toy(config: ToyConfig, rng: SeededRng) -> Dataset:
    """Sample the two-cluster toy dataset; positives first, then negatives.

    Positives are drawn around (2, 2) and negatives around (-1, -1), with
    per-axis variance 4. Balanced mode draws round(n_train / 2) positives;
    unbalanced mode draws one positive per six negatives (round(n_train / 7))
    and tightens the positive variance to 2.
    """
    balanced = config.mode == "balanced"
    n_pos = round(config.n_train / (2 if balanced else 7))
    n_neg = config.n_train - n_pos
    pos = 2.0 + np.sqrt(4.0 if balanced else 2.0) * rng.split("positive").normal((n_pos, 2))
    neg = -1.0 + np.sqrt(4.0) * rng.split("negative").normal((n_neg, 2))
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64),
                             np.zeros(n_neg, dtype=np.int64)])
    return Dataset(features, labels, ("x1", "x2"))


def generate_synthetic(rng: SeededRng, n: int = 10_000, d: int = 10,
                       positive_fraction: float = 0.15,
                       separation: float = 1.8, informative: int = 5) -> Dataset:
    """Imbalanced binary dataset with overlapping unit-variance Gaussian classes.

    The class means differ by `separation` in Euclidean distance, spread over
    the first `informative` features, so the Bayes-optimal AUC is strictly
    below 1 (aleatory overlap by construction).
    """
    if not 0 < positive_fraction < 1:
        raise ParameterError(f"positive fraction must be in (0,1), got {positive_fraction}")
    if not 1 <= informative <= d:
        raise ParameterError(f"informative must be in [1, {d}], got {informative}")
    n_pos = round(n * positive_fraction)
    if n_pos < 1 or n - n_pos < 1:
        raise ParameterError("both classes must be non-empty")
    shift = np.zeros(d)
    shift[:informative] = separation / np.sqrt(informative)
    x = rng.split("features").normal((n, d))
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    x[:n_pos] += shift
    order = rng.split("order").permutation(n)
    names = tuple(f"f{j + 1}" for j in range(d))
    return Dataset(x[order], labels[order], names)


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a UTF-8 comma-separated file with a mandatory header row.

    Columns named `group:<tag>` must hold 0/1 and become boolean group
    masks; every other non-label column must be numeric and finite and
    becomes a feature. No column may be named twice. A leading byte-order
    mark is dropped. A byte that is not UTF-8, or a line the csv module
    cannot parse, is a DataError naming the line.
    """
    path = Path(path)
    # Split on \n, \r and \r\n only, as a file opened with newline="" is.
    lines = path.read_bytes().removeprefix(codecs.BOM_UTF8).splitlines(keepends=True)
    for n, line in enumerate(lines):
        try:
            lines[n] = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: line {n + 1}: not UTF-8 text ({e.reason})") from None
    reader = csv.reader(lines)
    try:
        rows = list(reader)
    except csv.Error as e:
        raise DataError(f"{path}: line {reader.line_num}: {e}") from None
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [h.strip() for h in rows[0]]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise DataError(f"{path}: column {name!r} appears more than once")
    if label_column not in header:
        raise DataError(f"{path}: missing label column {label_column!r}")
    label_idx = header.index(label_column)
    group_cols = [(i, name[len("group:"):]) for i, name in enumerate(header)
                  if name.startswith("group:")]
    feature_cols = [i for i, name in enumerate(header)
                    if i != label_idx and not name.startswith("group:")]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns")

    features = np.empty((len(rows) - 1, len(feature_cols)), dtype=np.float64)
    labels = np.empty(len(rows) - 1, dtype=np.int64)
    groups = {tag: np.zeros(len(rows) - 1, dtype=bool) for _, tag in group_cols}
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        cell = row[label_idx].strip()
        if cell not in ("0", "1"):
            raise DataError(f"{path}: row {r}: label must be 0 or 1, got {cell!r}")
        labels[r - 1] = int(cell)
        for j, i in enumerate(feature_cols):
            try:
                features[r - 1, j] = float(row[i])
            except ValueError:
                raise DataError(
                    f"{path}: row {r}, column {header[i]!r}: "
                    f"non-numeric value {row[i]!r}") from None
        for i, tag in group_cols:
            cell = row[i].strip()
            if cell not in ("0", "1"):
                raise DataError(
                    f"{path}: row {r}, column {header[i]!r}: "
                    f"group membership must be 0 or 1, got {cell!r}")
            groups[tag][r - 1] = cell == "1"
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, j = bad[0]
        raise DataError(f"{path}: row {r + 1}, column {header[feature_cols[j]]!r}: "
                        f"non-finite value {rows[r + 1][feature_cols[j]]!r}")
    names = tuple(header[i] for i in feature_cols)
    return Dataset(features, labels, names, groups)


def fit_scaler(d: Dataset) -> StandardScaler:
    """Per-feature mean and standard deviation; stds floored to avoid division by zero."""
    if d.n < 2:
        raise DataError(f"need at least 2 rows to fit a scaler, got {d.n}")
    mean = d.features.mean(axis=0)
    std = np.maximum(d.features.std(axis=0), STD_FLOOR)
    return StandardScaler(mean=mean, std=std)


def apply_scaler(s: StandardScaler, d: Dataset) -> Dataset:
    if s.mean.shape != (d.d,):
        raise ShapeError(f"scaler fitted on {s.mean.shape[0]} features, dataset has {d.d}")
    return d.with_features((d.features - s.mean) / s.std)


def split(d: Dataset, fractions: tuple[float, float, float],
          rng: SeededRng) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint random train/val/test partition with rounded-fraction sizes."""
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ParameterError(f"need three positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ParameterError(f"fractions must sum to 1, got {sum(fractions)}")
    perm = rng.permutation(d.n)
    n_train = round(fractions[0] * d.n)
    n_val = round(fractions[1] * d.n)
    train_i = perm[:n_train]
    val_i = perm[n_train:n_train + n_val]
    test_i = perm[n_train + n_val:]
    if min(len(train_i), len(val_i), len(test_i)) < 1:
        raise DataError(
            f"split of {d.n} rows by {fractions} leaves an empty part "
            f"({len(train_i)}/{len(val_i)}/{len(test_i)})")
    return d.take(train_i), d.take(val_i), d.take(test_i)


def bootstrap_sample(d: Dataset, rng: SeededRng) -> Dataset:
    """Uniform with-replacement resample of the same size."""
    if d.n < 1:
        raise DataError("cannot bootstrap an empty dataset")
    return d.take(rng.integers(0, d.n, size=d.n))


def exclude_group(d: Dataset, tag: str) -> tuple[Dataset, Dataset]:
    """Partition rows into (in_domain, ood) by membership of `tag`, preserving order."""
    mask = d.groups.get(tag)
    if mask is None or not mask.any():
        raise DataError(f"no rows carry group tag {tag!r}")
    return d.take(np.flatnonzero(~mask)), d.take(np.flatnonzero(mask))


def corrupt_feature(d: Dataset, index: int, factor: float) -> Dataset:
    """Copy of d with feature column `index` multiplied by `factor` > 0."""
    if factor <= 0:
        raise ParameterError(f"corruption factor must be positive, got {factor}")
    if not 0 <= index < d.d:
        raise ParameterError(f"feature index {index} out of range for {d.d} features")
    features = d.features.copy()
    features[:, index] *= factor
    return d.with_features(features)


def grid_2d(bounds: tuple[tuple[float, float], tuple[float, float]],
            resolution: int) -> np.ndarray:
    """Row-major resolution x resolution grid over an axis-aligned box."""
    if resolution < 2:
        raise ParameterError(f"resolution must be at least 2, got {resolution}")
    for lo, hi in bounds:
        if not (np.isfinite([lo, hi]).all() and lo < hi):
            raise ParameterError(f"bound ({lo}, {hi}) must be finite with min < max")
    ax0 = np.linspace(bounds[0][0], bounds[0][1], resolution)
    ax1 = np.linspace(bounds[1][0], bounds[1][1], resolution)
    g0, g1 = np.meshgrid(ax0, ax1, indexing="ij")
    return np.column_stack([g0.ravel(), g1.ravel()])
