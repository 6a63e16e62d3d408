"""L2-penalized logistic regression trained full-batch by L-BFGS (numeric.minimize_gd).

The objective is mean weighted BCE plus lambda/2 * ||w||^2 with
lambda = 1/(C*N) and the bias unpenalized; C=inf means no penalty. Class
weighting uses one global w+ computed from the full training set, not a
per-batch weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, bootstrap_sample
from .errors import DataError, ParameterError
from .mlp import PROB_CLAMP, positive_weight
from .numeric import checked_inputs, minimize_gd, sigmoid
from .rng import SeededRng


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float


def predict_logistic(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    X = checked_inputs(X, model.weights.shape[0])
    p = sigmoid(X @ model.weights + model.bias)
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _softplus(t: np.ndarray) -> np.ndarray:
    # log(1 + e^t) without overflow for large |t|.
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def logistic_objective(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                       w_pos: float, lam: float) -> tuple[float, np.ndarray]:
    """Weighted BCE plus ridge penalty, with its analytic gradient.

    params stacks the weight vector and the bias as the last entry. The BCE
    is evaluated from logits (w+ * y * softplus(-z) + (1-y) * softplus(z)),
    which equals the clamp-free cross-entropy without computing probabilities.
    Platt scaling (metrics.platt_fit) fits its (a, b) through this objective
    too, as a one-feature model with w+ = 1 and no penalty.
    """
    w, b = params[:-1], params[-1]
    z = X @ w + b
    n = y.shape[0]
    loss = float((w_pos * y * _softplus(-z) + (1.0 - y) * _softplus(z)).mean()
                 + 0.5 * lam * np.dot(w, w))
    p = sigmoid(z)
    dz = ((1.0 - y) * p - w_pos * y * (1.0 - p)) / n
    grad = np.concatenate([X.T @ dz + lam * w, [dz.sum()]])
    return loss, grad


def train_logistic(train: Dataset, C: float = 1e-2,
                   weighting: bool = False) -> LogisticModel:
    """Deterministic full-batch L-BFGS fit to gradient-norm 1e-6 (or 1e4 iterations)."""
    if train.n < 1:
        raise DataError("training set is empty")
    if not C > 0:
        raise ParameterError(f"inverse regularization C must be positive, got {C}")
    y = train.labels.astype(np.float64)
    if weighting and (y.sum() == 0 or y.sum() == y.size):
        raise DataError("class weighting needs both classes in the training data")
    w_pos = positive_weight(train.labels) if weighting else 1.0
    lam = 0.0 if np.isinf(C) else 1.0 / (C * train.n)
    # Warm-start the bias at the intercept-only optimum, the base-rate logit.
    # Where each fit ends within its tolerance, and so every recorded output,
    # depends on this start.
    x0 = np.zeros(train.d + 1)
    x0[-1] = float(np.log(np.clip(w_pos * y.sum(), 1e-12, None))
                   - np.log(np.clip((1.0 - y).sum(), 1e-12, None)))
    params, _, _ = minimize_gd(
        lambda p: logistic_objective(p, train.features, y, w_pos, lam),
        x0, tol=1e-6, max_iter=10_000)
    return LogisticModel(weights=params[:-1], bias=float(params[-1]))


def train_bootstrapped_lr(train: Dataset, rng: SeededRng, M: int = 5,
                          C: float = 1e-2,
                          weighting: bool = False) -> tuple[LogisticModel, ...]:
    """M logistic models, each fit on an independent same-size bootstrap resample.

    Each member's global class weight comes from its own resample, since that
    is the data the member actually trains on.
    """
    if M < 1:
        raise ParameterError(f"ensemble size must be at least 1, got {M}")
    members = []
    for i in range(M):
        sample = bootstrap_sample(train, rng.split(f"member{i}"))
        if weighting and len(set(sample.labels.tolist())) < 2:
            # Resampling can drop the rare class entirely; retry on fresh draws.
            for retry in range(100):
                sample = bootstrap_sample(train, rng.split(f"member{i}.retry{retry}"))
                if len(set(sample.labels.tolist())) == 2:
                    break
            else:
                raise DataError(f"bootstrap member {i} never drew both classes")
        members.append(train_logistic(sample, C=C, weighting=weighting))
    return tuple(members)
