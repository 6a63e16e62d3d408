"""Scoring primitives: entropy uncertainty, AUC-ROC, ECE, Platt scaling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, UndefinedMetricError
from .logistic import logistic_objective
from .numeric import minimize_gd, sigmoid

PLATT_CLAMP = 1e-6


def binary_entropy(p):
    """Shannon entropy -p ln p - (1-p) ln(1-p) in nats, with 0 ln 0 = 0.

    Accepts a scalar or an array; returns the matching type.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        bad = arr[~((arr >= 0) & (arr <= 1))].ravel()[0]
        raise ParameterError(f"probability outside [0, 1]: {bad}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(arr > 0, arr * np.log(arr), 0.0) \
            - np.where(arr < 1, (1.0 - arr) * np.log(1.0 - arr), 0.0)
    if np.isscalar(p) or arr.ndim == 0:
        return float(h)
    return h


def _check_binary_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and not np.isin(labels, (0, 1)).all():
        bad = labels[~np.isin(labels, (0, 1))].ravel()[0]
        raise ParameterError(f"labels must be 0 or 1, found {bad}")
    return labels.astype(np.int64).ravel()


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    values = np.asarray(values).ravel()
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    # Positions start+1 .. end (1-based) average to (start + end + 1) / 2.
    return ((starts + ends + 1) / 2.0)[inverse]


def auc_roc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score+ > score-) with ties counted one half.

    Rank-based O(n log n) computation; ties get midranks, which is exactly
    equivalent to the pairwise half-tie count.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = _check_binary_labels(labels)
    if scores.shape != labels.shape:
        raise ShapeError(f"{scores.size} scores for {labels.size} labels")
    if np.isnan(scores).any():
        raise ParameterError("scores contain NaN")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC-ROC needs both classes present")
    ranks = midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def ece(probs, outcomes, K: int = 10) -> float:
    """Expected calibration error: (1/N) sum_k N_k |mean_pred_k - observed_k|
    over K equal-width bins on [0, 1], the last closed at 1; empty bins add 0."""
    probs = np.asarray(probs, dtype=np.float64).ravel()
    outcomes = _check_binary_labels(outcomes)
    if probs.shape != outcomes.shape:
        raise ShapeError(f"{probs.size} probabilities for {outcomes.size} outcomes")
    if probs.size == 0:
        raise UndefinedMetricError("cannot bin an empty prediction set")
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ParameterError("probabilities must lie in [0, 1]")
    if K < 1:
        raise ParameterError(f"need at least one bin, got K={K}")
    idx = np.minimum((probs * K).astype(np.int64), K - 1)
    counts = np.bincount(idx)
    filled = counts > 0
    counts = counts[filled]
    mean_p = np.bincount(idx, weights=probs)[filled] / counts
    mean_y = np.bincount(idx, weights=outcomes.astype(np.float64))[filled] / counts
    return float((counts * np.abs(mean_p - mean_y)).sum() / counts.sum())


@dataclass(frozen=True)
class PlattParams:
    a: float
    b: float


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(np.asarray(p, dtype=np.float64).ravel(), PLATT_CLAMP, 1.0 - PLATT_CLAMP)
    return np.log(p / (1.0 - p))


def platt_fit(val_probs, val_labels) -> PlattParams:
    """Fit sigmoid(a * logit(p) + b) to validation outcomes by L-BFGS.

    Minimizes (numeric.minimize_gd) the unweighted, unpenalized BCE of
    logistic_objective over the one feature logit(p), to gradient-norm
    tolerance 1e-8, starting from the identity transform (a, b) = (1, 0).
    """
    t = _logit(val_probs)
    y = _check_binary_labels(val_labels).astype(np.float64)
    if t.shape != y.shape:
        raise ShapeError(f"{t.size} probabilities for {y.size} labels")
    if y.size == 0 or y.sum() == 0 or y.sum() == y.size:
        raise UndefinedMetricError("Platt fitting needs both classes in validation")
    params, _, _ = minimize_gd(lambda p: logistic_objective(p, t[:, None], y, 1.0, 0.0),
                               np.array([1.0, 0.0]), tol=1e-8, max_iter=10_000)
    return PlattParams(a=float(params[0]), b=float(params[1]))


def platt_apply(params: PlattParams, probs) -> np.ndarray:
    """Recalibrated probabilities; monotone in the input when a > 0."""
    return sigmoid(params.a * _logit(probs) + params.b)
