"""Experiment protocols: confidence-performance curves, OOD detection,
corrupted-feature detection, seed sweeps, and toy surface evaluation.

Record dictionaries map (method, context, metric) keys to floats, with None
for metrics that are undefined in a given context (for example AUC over a
single-class prefix). The cli module flattens these into CSV rows.

Stochastic scoring draws from rng child streams named by their label path,
not by consumed state, so scoring the same inputs twice gives bitwise equal
results; this is what makes the factor-1 corruption baseline exactly 0.5. The
VAE re-derives its stream on every call. MC dropout's keep bits come from
the same streams, one rng/score/pass<t> draw per pass and row count, cached
as drawn in the method's scorer, so the corrupted copies of a test set
reuse the clean copy's masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, apply_scaler, corrupt_feature, exclude_group, fit_scaler, split
from .ensemble import ensemble_predict, train_deep_ensemble
from .errors import ConfigError, DataError, ParameterError, ShapeError, UndefinedMetricError
from .logistic import predict_logistic, train_bootstrapped_lr
from .metrics import auc_roc, binary_entropy, ece, platt_apply, platt_fit
from .mlp import TrainConfig, mc_dropout_predict, predict_mlp, train_mlp
from .rng import SeededRng
from .vae import VaeConfig, train_vae, vae_novelty_score

METHODS = ("single-nn", "nn-ensemble", "mc-dropout", "bootstrap-lr", "vae")
DEFAULT_FRACTIONS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75,
                     0.80, 0.85, 0.90, 0.95, 1.00)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

RecordKey = tuple[str, str, str]
Records = dict[RecordKey, "float | None"]


@dataclass(frozen=True)
class CurvePoint:
    fraction: float
    auc: float | None
    ece: float
    positive_fraction: float


@dataclass(frozen=True)
class SeedSweep:
    seeds: tuple[int, ...]
    per_seed: tuple[Records, ...]
    mean: Records
    std: Records


@dataclass(frozen=True)
class MethodSettings:
    """Hyperparameters for every method, with the published defaults.

    class_weighting is the one switch for the loss weighting of every
    classifier. standardize controls whether experiments fit a scaler on
    their training split.
    """

    mlp: TrainConfig = TrainConfig()
    vae: VaeConfig = VaeConfig()
    ensemble_size: int = 5
    mc_passes: int = 100
    logistic_c: float = 1e-2
    class_weighting: bool = False
    standardize: bool = True

    @classmethod
    def toy(cls, class_weighting: bool = False) -> "MethodSettings":
        return cls(mlp=TrainConfig.toy(), vae=VaeConfig.toy(),
                   logistic_c=float("inf"), class_weighting=class_weighting,
                   standardize=False)


@dataclass
class FittedMethod:
    """A trained method. A classifier sets predict; the VAE sets uncertainty,
    its novelty scorer, and predict only when paired with its classifier."""

    name: str
    predict: Callable[[np.ndarray], np.ndarray] | None = None
    uncertainty: Callable[[np.ndarray], np.ndarray] | None = None

    def score(self, X: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """(probability or None, uncertainty), higher = more uncertain.

        Each model runs once: a classifier's uncertainty is the entropy of
        the probabilities it has just computed.
        """
        probs = None if self.predict is None else self.predict(X)
        if self.name == "vae":
            return probs, self.uncertainty(X)
        return probs, binary_entropy(probs)


def train_method(name: str, train: Dataset, val: Dataset,
                 settings: MethodSettings, rng: SeededRng) -> FittedMethod:
    """Train one named method.

    Scoring closures call rng.split("score") afresh on each invocation, so a
    stochastic scorer applied twice to identical inputs returns identical
    outputs (the stream is derived from the label path, not consumed state).
    The MC-dropout closure also owns a cache, keyed by row count N, of the
    packed keep bits drawn from rng/score/pass<t>, T * N * sum(ceil(h / 8))
    bytes: each row count's bits are drawn on its first call and reused after.
    """
    weighting = settings.class_weighting
    if name == "single-nn":
        model, = train_mlp(train, val, settings.mlp, [rng.split("model")], weighting)
        return FittedMethod(name, predict=lambda X: predict_mlp(model, X))
    if name == "nn-ensemble":
        model = train_deep_ensemble(train, val, settings.mlp, rng.split("model"),
                                    settings.ensemble_size, weighting)
        return FittedMethod(name, predict=lambda X: ensemble_predict(predict_mlp, model, X))
    if name == "mc-dropout":
        model, = train_mlp(train, val, settings.mlp, [rng.split("model")], weighting)
        masks: dict = {}
        return FittedMethod(name, predict=lambda X: mc_dropout_predict(
            model, X, rng.split("score"), settings.mc_passes, masks))
    if name == "bootstrap-lr":
        model = train_bootstrapped_lr(train, rng.split("model"), settings.ensemble_size,
                                      settings.logistic_c, weighting)
        return FittedMethod(name, predict=lambda X: ensemble_predict(predict_logistic, model, X))
    if name == "vae":
        model = train_vae(train, settings.vae, rng.split("model"))
        return FittedMethod(name, uncertainty=lambda X: vae_novelty_score(
            model, X, rng.split("score"), settings.vae.samples))
    raise ConfigError(f"unknown method {name!r}")


def train_with_classifier(name: str, train: Dataset, val: Dataset,
                          settings: MethodSettings, rng: SeededRng) -> FittedMethod:
    """train_method on rng.split(name); the VAE, which has no classifier of
    its own, is paired with a single NN trained on rng.split("vae-classifier")
    for its probabilities."""
    fitted = train_method(name, train, val, settings, rng.split(name))
    if name == "vae":
        fitted.predict = train_method("single-nn", train, val, settings,
                                      rng.split("vae-classifier")).predict
    return fitted


def confidence_performance(probability: np.ndarray, uncertainty: np.ndarray,
                           label: np.ndarray,
                           fractions=DEFAULT_FRACTIONS) -> list[CurvePoint]:
    """Metrics over expanding most-confident prefixes of one method's scores.

    Rows are sorted by ascending uncertainty with a stable tie-break on the
    original index; each point covers the first ceil(f*N) rows. AUC over a
    single-class prefix is reported as None.
    """
    probability = np.asarray(probability, dtype=np.float64).ravel()
    uncertainty = np.asarray(uncertainty, dtype=np.float64).ravel()
    label = np.asarray(label, dtype=np.int64).ravel()
    n = probability.size
    if not n == uncertainty.size == label.size:
        raise ShapeError(f"mismatched lengths: {n} probabilities, "
                         f"{uncertainty.size} uncertainties, {label.size} labels")
    if n == 0:
        raise DataError("cannot compute a curve over an empty prediction set")
    if not ((probability >= 0.0) & (probability <= 1.0)).all():
        raise ParameterError("probabilities must lie in [0, 1]")
    if len(set(label.tolist())) < 2:
        raise UndefinedMetricError("confidence-performance needs both classes present")
    order = np.argsort(uncertainty, kind="mergesort")
    points = []
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ParameterError(f"fractions must lie in (0, 1], got {f}")
        k = max(1, math.ceil(f * n - 1e-9))
        idx = order[:k]
        probs, labels = probability[idx], label[idx]
        try:
            auc = auc_roc(probs, labels)
        except UndefinedMetricError:
            auc = None
        points.append(CurvePoint(fraction=f, auc=auc, ece=ece(probs, labels),
                                 positive_fraction=float(labels.mean())))
    return points


def _scaled(settings: MethodSettings, train: Dataset,
            *others: Dataset) -> tuple[Dataset, ...]:
    if not settings.standardize:
        return (train, *others)
    scaler = fit_scaler(train)
    return tuple(apply_scaler(scaler, d) for d in (train, *others))


def curve_experiment(train: Dataset, val: Dataset, test: Dataset,
                     methods, settings: MethodSettings, rng: SeededRng,
                     fractions=DEFAULT_FRACTIONS, use_platt: bool = False) -> Records:
    """Confidence-performance curves for each method on the test split.

    The VAE has no classifier, so its rows use a paired single NN for
    probabilities while the VAE novelty score drives the exclusion order.
    With use_platt, probabilities are recalibrated by Platt scaling fitted
    once on the validation split (per method), and the fitted slope and
    intercept are emitted as records.
    """
    train, val, test = _scaled(settings, train, val, test)
    records: Records = {}
    for name in methods:
        fitted = train_with_classifier(name, train, val, settings, rng)
        probs, uncertainty = fitted.score(test.features)
        if use_platt:
            params = platt_fit(fitted.predict(val.features), val.labels)
            probs = platt_apply(params, probs)
            records[(name, "platt", "a")] = params.a
            records[(name, "platt", "b")] = params.b
        for point in confidence_performance(probs, uncertainty, test.labels, fractions):
            ctx = f"f={point.fraction:.2f}"
            records[(name, ctx, "auc")] = point.auc
            records[(name, ctx, "ece")] = point.ece
            records[(name, ctx, "positive_fraction")] = point.positive_fraction
    return records


def ood_experiment(data: Dataset, tag: str, methods, settings: MethodSettings,
                   rng: SeededRng, split_fractions=(0.6, 0.2, 0.2)) -> Records:
    """Group-holdout OOD detection, every method on the same rows.

    The tagged rows are excluded, the rest is split once on rng/split, and
    each method trains on rng/<method> and scores the stacked test and OOD
    rows in one call. Detection AUC ranks those rows by uncertainty, with the
    OOD rows labelled 1. Subgroup AUC is the classifier's AUC on the OOD rows
    alone, absent for the VAE and for single-class groups. Records are keyed
    (method, "group=<tag>", "detection_auc" | "subgroup_auc").
    """
    in_domain, ood = exclude_group(data, tag)
    train, val, test = split(in_domain, split_fractions, rng.split("split"))
    train, val, test, ood = _scaled(settings, train, val, test, ood)
    joint = np.vstack([test.features, ood.features])
    is_ood = np.concatenate([np.zeros(test.n, dtype=np.int64),
                             np.ones(ood.n, dtype=np.int64)])
    ctx = f"group={tag}"
    records: Records = {}
    for name in methods:
        probs, scores = train_method(name, train, val, settings,
                                     rng.split(name)).score(joint)
        records[(name, ctx, "detection_auc")] = auc_roc(scores, is_ood)
        subgroup = None
        if probs is not None:
            try:
                subgroup = auc_roc(probs[test.n:], ood.labels)
            except UndefinedMetricError:
                pass
        records[(name, ctx, "subgroup_auc")] = subgroup
    return records


def corruption_experiment(methods, test: Dataset, rng: SeededRng,
                          factors=(10, 1000), n_features: int = 30) -> Records:
    """Single-feature corruption detection for already-trained methods.

    Samples min(n_features, D) feature columns without replacement, corrupts
    each at every factor, and scores detection of perturbed vs clean test
    rows per method. Emits one record per (method, factor, feature) plus the
    per-factor mean and (sample) standard deviation over features.
    """
    count = min(n_features, test.d)
    chosen = rng.split("features").permutation(test.d)[:count]
    records: Records = {}
    for fitted in methods:
        _, clean = fitted.score(test.features)
        is_pert = np.concatenate([np.zeros(test.n, dtype=np.int64),
                                  np.ones(test.n, dtype=np.int64)])
        for factor in factors:
            aucs = []
            for j in chosen:
                perturbed = corrupt_feature(test, int(j), factor)
                scores = np.concatenate([clean, fitted.score(perturbed.features)[1]])
                auc = auc_roc(scores, is_pert)
                ctx = f"factor={factor:g}.feature={test.feature_names[j]}"
                records[(fitted.name, ctx, "detection_auc")] = auc
                aucs.append(auc)
            ctx = f"factor={factor:g}"
            records[(fitted.name, ctx, "detection_auc_mean")] = float(np.mean(aucs))
            records[(fitted.name, ctx, "detection_auc_std")] = (
                float(np.std(aucs, ddof=1)) if len(aucs) >= 2 else None)
    return records


def seed_sweep(experiment: Callable[[SeededRng], Records],
               seeds=DEFAULT_SEEDS) -> SeedSweep:
    """Run an experiment closure once per seed and aggregate per record key.

    Mean and std cover the seeds where a value is present; std needs at
    least two present values and is otherwise None. Errors propagate with
    the failing seed prepended to the message.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ParameterError("need at least one seed")
    per_seed = []
    for seed in seeds:
        try:
            per_seed.append(experiment(SeededRng(seed)))
        except Exception as e:
            try:
                raise type(e)(f"seed {seed}: {e}") from e
            except TypeError:
                raise RuntimeError(f"seed {seed}: {e}") from e
    mean: Records = {}
    std: Records = {}
    for key in dict.fromkeys(key for rec in per_seed for key in rec):
        values = [rec[key] for rec in per_seed if rec.get(key) is not None]
        mean[key] = float(np.mean(values)) if values else None
        std[key] = float(np.std(values, ddof=1)) if len(values) >= 2 else None
    return SeedSweep(seeds=seeds, per_seed=tuple(per_seed), mean=mean, std=std)


def toy_surfaces(fitted: FittedMethod, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Per-grid-point surfaces: probability and entropy wherever there is a
    classifier, and novelty for the VAE."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[1] != 2:
        raise ShapeError(f"expected an (N, 2) grid, got {grid.shape}")
    probs, uncertainty = fitted.score(grid)
    if fitted.name != "vae":
        return {"probability": probs, "entropy": uncertainty}
    paired = {} if probs is None else {"probability": probs, "entropy": binary_entropy(probs)}
    return {**paired, "novelty": uncertainty}
