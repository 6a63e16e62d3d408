"""Experiment protocols over fitted methods: confidence-performance curves,
OOD detection, corrupted-feature detection, seed sweeps, and toy surfaces.

Record dictionaries map (method, context, metric) keys to floats, with None
for metrics that are undefined in a given context (for example AUC over a
single-class prefix). The cli module flattens these into CSV rows.

Stochastic scoring draws from rng child streams named by their label path,
not by consumed state, so scoring the same inputs twice gives bitwise equal
results; this is what makes the factor-1 corruption baseline exactly 0.5. The
VAE re-derives its stream on every call, and MC dropout draws each pass's
keep bits from rng/score/pass<t> on every call, so the corrupted copies of a
test set meet the clean copy's masks. train_methods is the one place that
fits models, those of a group of seeds, each method's on its seed's
rng/<method>, and it fits them all before train_method wraps any: all
networks of the group train in one stacked train_mlp call, each on the stream
its method would fit it on and on its seed's sets, and the VAE, then
bootstrap-LR, seed by seed, beside that call on a worker thread when the
smaller of the MLP and VAE steps reaches numeric.WORKER_MIN, right after it
otherwise. seed_groups decides which seeds share a group, from the same MLP
step (_mlp_step).
Large MC-dropout calls split their passes over the same worker
(numeric.beside_worker); threads change no bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, corrupt_feature
from .ensemble import ensemble_predict
from .errors import (ConfigError, DataError, ParameterError, ShapeError, TrainingError,
                     UndefinedMetricError)
from .logistic import predict_logistic, train_bootstrapped_lr
from .metrics import auc_roc, binary_entropy, ece, platt_apply, platt_fit
from .mlp import TrainConfig, mc_dropout_predict, predict_mlp, train_mlp
from .numeric import WORKER_MIN, beside_worker
from .rng import SeededRng
from .vae import VaeConfig, train_vae, vae_novelty_score

METHODS = ("single-nn", "nn-ensemble", "mc-dropout", "bootstrap-lr", "vae")
MLP_METHODS = METHODS[:3]
DEFAULT_FRACTIONS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75,
                     0.80, 0.85, 0.90, 0.95, 1.00)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
DEFAULT_FACTORS = (10, 1000)
DEFAULT_N_CORRUPT_FEATURES = 30
RecordKey = tuple[str, str, str]
Records = dict[RecordKey, "float | None"]


def fraction_context(fraction: float) -> str:
    """The record context of a confidence-performance point."""
    return f"f={fraction:.2f}"


def factor_context(factor: float) -> str:
    """The record context of a corruption factor."""
    return f"factor={factor:g}"


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
    classifier. standardize controls whether the CLI fits a scaler on each
    seed's training split.
    """

    mlp: TrainConfig = TrainConfig()
    vae: VaeConfig = VaeConfig()
    ensemble_size: int = 5
    mc_passes: int = 100
    logistic_c: float = 1e-2
    class_weighting: bool = False
    standardize: bool = True

    @classmethod
    def toy(cls) -> "MethodSettings":
        return cls(mlp=TrainConfig.toy(), vae=VaeConfig.toy(),
                   logistic_c=float("inf"), standardize=False)


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


def _mlp_streams(name: str, rng: SeededRng, settings: MethodSettings) -> list[SeededRng]:
    """The training stream of each network of a method trained on rng:
    rng/model/member<i> per ensemble member, rng/model for single-nn and
    mc-dropout, and none for the methods without an MLP."""
    if name not in MLP_METHODS:
        return []
    model = rng.split("model")
    if name == "nn-ensemble":
        return [model.split(f"member{i}") for i in range(settings.ensemble_size)]
    return [model]


def train_method(name: str, settings: MethodSettings, rng: SeededRng,
                 models: tuple) -> FittedMethod:
    """Wrap one named method's fitted models, as train_methods hands them over.

    An MLP method gets its networks, bootstrap-lr its members, and the VAE
    its model followed, when paired, by its classifier network. Scoring
    closures call rng.split("score") afresh on each invocation, so a
    stochastic scorer applied twice to identical inputs returns identical
    outputs (the stream is derived from the label path, not consumed state).
    A fitted method holds its models and no scoring state.
    """
    if name == "single-nn":
        model, = models
        return FittedMethod(name, predict=lambda X: predict_mlp(model, X))
    if name == "nn-ensemble":
        return FittedMethod(name, predict=lambda X: ensemble_predict(predict_mlp, models, X))
    if name == "mc-dropout":
        model, = models
        return FittedMethod(name, predict=lambda X: mc_dropout_predict(
            model, X, rng.split("score"), settings.mc_passes))
    if name == "bootstrap-lr":
        return FittedMethod(name, predict=lambda X: ensemble_predict(predict_logistic, models, X))
    if name == "vae":
        model, *classifier = models
        predict = (lambda X: predict_mlp(classifier[0], X)) if classifier else None
        return FittedMethod(name, predict=predict, uncertainty=lambda X: vae_novelty_score(
            model, X, rng.split("score"), settings.vae.samples))
    raise ConfigError(f"unknown method {name!r}")


def _seed_streams(names, rng: SeededRng, settings: MethodSettings,
                  paired: bool) -> list[list[SeededRng]]:
    """Each named method's network streams on a seed's rng (_mlp_streams on
    rng/<method>); with paired, the VAE's are its classifier's, a single NN's on
    rng/vae-classifier."""
    return [_mlp_streams("single-nn", rng.split("vae-classifier"), settings)
            if name == "vae" and paired else _mlp_streams(name, rng.split(name), settings)
            for name in names]


def _mlp_step(networks: int, settings: MethodSettings, rows: int) -> int:
    """The size of one stacked MLP step: networks * min(batch, training rows) *
    widest hidden layer."""
    return networks * min(settings.mlp.batch_size, rows) * max(settings.mlp.hidden)


def seed_groups(names, settings: MethodSettings, paired: bool, seeds: tuple[int, ...],
                train_rows: int) -> list[tuple[int, ...]]:
    """seeds in runs of consecutive ones whose networks train in one stack, one
    train_methods call per run.

    A run grows while two measures of its stack stay under numeric.WORKER_MIN,
    the line between Python-bound and BLAS-bound steps: the step (_mlp_step)
    and the epoch, networks * train rows, which sizes the keep bits and the
    gathered training rows. A seed whose own stack reaches either is alone, as
    is every seed of a run that trains no network.
    """
    networks = sum(map(len, _seed_streams(names, SeededRng(0), settings, paired)))
    size = max(1, (WORKER_MIN - 1) // max(_mlp_step(networks, settings, train_rows),
                                          networks * train_rows)) if networks else 1
    return [seeds[i:i + size] for i in range(0, len(seeds), size)]


def train_methods(names, seeds, settings: MethodSettings,
                  paired: bool = False) -> list[list[FittedMethod]]:
    """Each seed's methods, in the order named, for a group of seeds given as
    (train, val, rng) triples; each method is wrapped by train_method on
    rng.split(name) once every model of the group is fitted. Every network of
    every seed comes from one train_mlp call over each seed's streams
    (_seed_streams), with its seed's sets, so each has the bits of its own fit;
    with paired, the VAE is also handed the network of a single NN on
    rng/vae-classifier. Beside that call, one job trains, seed by seed, the VAE
    on rng/vae/model and then bootstrap-lr's members on rng/bootstrap-lr/model.
    train_mlp gets the group's train and val sets as they are, one of each per
    seed, which must share one shape; each seed's networks are one run of its
    streams.

    numeric.beside_worker's step is the smaller of the VAE step, min(vae batch,
    train rows) * latent, and the group's MLP step (_mlp_step), 0 without a
    VAE. At or above numeric.WORKER_MIN the job runs on a worker thread during
    the train_mlp call; otherwise right after it. Either way every model has
    the same bits, and the errors come in the order of the fits: train_mlp's,
    then the first seed's VAE, its bootstrap-lr, the next seed's VAE, and so on.
    """
    if not seeds:
        raise ParameterError("need at least one seed to fit")
    streams = [_seed_streams(names, rng, settings, paired) for _, _, rng in seeds]
    everyone = [s for seed in streams for method in seed for s in method]

    def fit_vae_and_lr():
        fits = []
        for train, _, rng in seeds:
            vae = ((train_vae(train, settings.vae, rng.split("vae").split("model")),)
                   if "vae" in names else ())
            members = train_bootstrapped_lr(
                train, rng.split("bootstrap-lr").split("model"), settings.ensemble_size,
                settings.logistic_c, settings.class_weighting) if "bootstrap-lr" in names else ()
            fits.append({"vae": vae, "bootstrap-lr": members})
        return fits

    def fit_mlps():
        return train_mlp([train for train, _, _ in seeds], [val for _, val, _ in seeds],
                         settings.mlp, everyone, settings.class_weighting) if everyone else ()

    rows = seeds[0][0].n
    vae_step = min(settings.vae.batch_size, rows) * settings.vae.latent_dim
    step = min(vae_step, _mlp_step(len(everyone), settings, rows)) if "vae" in names else 0
    networks, models = beside_worker(fit_vae_and_lr, fit_mlps, "tabuq-vae", step)
    networks = iter(networks)
    return [[train_method(name, settings, rng.split(name),
                          fits.get(name, ()) + tuple(next(networks) for _ in method))
             for name, method in zip(names, seed)]
            for (_, _, rng), seed, fits in zip(seeds, streams, models)]


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
    if np.isnan(uncertainty).any():
        raise ParameterError("uncertainties must not be NaN")
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


def curve_experiment(methods, val: Dataset, test: Dataset,
                     fractions=DEFAULT_FRACTIONS, use_platt: bool = False) -> Records:
    """Confidence-performance curves for each fitted method on the test split.

    Each method needs a probability, else ParameterError: the VAE's comes from
    its paired single NN, while its novelty score orders the rows. With
    use_platt, probabilities are recalibrated by Platt scaling fitted once per
    method on val, and its slope and intercept are emitted as records.
    """
    records: Records = {}
    for fitted in methods:
        if fitted.predict is None:
            raise ParameterError(f"method {fitted.name!r} has no probability for a curve; "
                                 f"fit it with paired=True")
        probs, uncertainty = fitted.score(test.features)
        if use_platt:
            params = platt_fit(fitted.predict(val.features), val.labels)
            probs = platt_apply(params, probs)
            records[(fitted.name, "platt", "a")] = params.a
            records[(fitted.name, "platt", "b")] = params.b
        for point in confidence_performance(probs, uncertainty, test.labels, fractions):
            ctx = fraction_context(point.fraction)
            records[(fitted.name, ctx, "auc")] = point.auc
            records[(fitted.name, ctx, "ece")] = point.ece
            records[(fitted.name, ctx, "positive_fraction")] = point.positive_fraction
    return records


def ood_experiment(methods, test: Dataset, ood: Dataset, tag: str) -> Records:
    """Group-holdout OOD detection, every fitted method on the same rows.

    Each method scores the stacked test and OOD (tagged) rows in one call.
    Detection AUC ranks those rows by uncertainty, with the OOD rows labelled
    1. Subgroup AUC is the classifier's AUC on the OOD rows alone, absent for
    the VAE and for single-class groups. Records are keyed (method,
    "group=<tag>", "detection_auc" | "subgroup_auc").
    """
    joint = np.vstack([test.features, ood.features])
    is_ood = np.concatenate([np.zeros(test.n, dtype=np.int64),
                             np.ones(ood.n, dtype=np.int64)])
    ctx = f"group={tag}"
    records: Records = {}
    for fitted in methods:
        probs, scores = fitted.score(joint)
        records[(fitted.name, ctx, "detection_auc")] = auc_roc(scores, is_ood)
        subgroup = None
        if probs is not None:
            try:
                subgroup = auc_roc(probs[test.n:], ood.labels)
            except UndefinedMetricError:
                pass
        records[(fitted.name, ctx, "subgroup_auc")] = subgroup
    return records


def corruption_experiment(methods, test: Dataset, rng: SeededRng,
                          factors=DEFAULT_FACTORS,
                          n_features: int = DEFAULT_N_CORRUPT_FEATURES) -> Records:
    """Single-feature corruption detection for already-trained methods.

    Samples min(n_features, D) feature columns without replacement, corrupts
    each at every factor, and scores detection of perturbed vs clean test
    rows per method. Emits one record per (method, factor, feature) plus the
    per-factor mean and (sample) standard deviation over features. An
    n_features below 1 or no factors is a ParameterError, and a factor whose
    product with a chosen feature's value is not finite a DataError, before
    any method scores.
    """
    if n_features < 1:
        raise ParameterError(f"n_features must be at least 1, got {n_features}")
    if len(factors) == 0:
        raise ParameterError("factors must name at least one factor")
    count = min(n_features, test.d)
    chosen = rng.split("features").permutation(test.d)[:count]
    for j in chosen:
        # Rounding is monotone, so the largest |value| gives the largest product.
        largest = float(np.abs(test.features[:, j]).max(initial=0.0))
        for factor in factors:
            if not math.isfinite(largest * factor):
                raise DataError(f"key 'factors': factor {factor!r} times feature "
                                f"{test.feature_names[j]!r} is not finite")
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
                ctx = f"{factor_context(factor)}.feature={test.feature_names[j]}"
                records[(fitted.name, ctx, "detection_auc")] = auc
                aucs.append(auc)
            ctx = factor_context(factor)
            records[(fitted.name, ctx, "detection_auc_mean")] = float(np.mean(aucs))
            records[(fitted.name, ctx, "detection_auc_std")] = (
                float(np.std(aucs, ddof=1)) if len(aucs) >= 2 else None)
    return records


def seed_sweep(experiment: Callable[[SeededRng], Records],
               seeds=DEFAULT_SEEDS) -> SeedSweep:
    """Run an experiment closure once per seed and aggregate per record key.

    Mean and std cover the seeds where a value is present; std needs at
    least two present values and is otherwise None. A toolkit error (one of
    tabuq.errors) is raised again as its own type, with the failing seed
    prepended to its message; any other error propagates unchanged.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ParameterError("need at least one seed")
    per_seed = []
    for seed in seeds:
        try:
            per_seed.append(experiment(SeededRng(seed)))
        except (ConfigError, DataError, ParameterError, ShapeError, TrainingError,
                UndefinedMetricError) as e:
            raise type(e)(f"seed {seed}: {e}") from e
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
