"""Homogeneous model ensembles: deep ensembles of MLPs, bootstrapped LR sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ParameterError, ShapeError
from .logistic import LogisticModel, predict_logistic
from .mlp import MlpModel, TrainConfig, predict_mlp, train_mlp
from .numeric import anchored_mean
from .rng import SeededRng


def _input_dim(model) -> int:
    if isinstance(model, MlpModel):
        return model.n_inputs
    if isinstance(model, LogisticModel):
        return model.weights.shape[0]
    raise ParameterError(f"unsupported ensemble member type {type(model).__name__}")


@dataclass(frozen=True)
class Ensemble:
    members: tuple

    def __post_init__(self):
        if len(self.members) < 1:
            raise ParameterError("an ensemble needs at least one member")
        dims = {_input_dim(m) for m in self.members}
        if len(dims) != 1:
            raise ShapeError(f"members disagree on input dimension: {sorted(dims)}")
        kinds = {type(m) for m in self.members}
        if len(kinds) != 1:
            raise ParameterError("ensemble members must all be the same kind")

    @property
    def size(self) -> int:
        return len(self.members)


def member_predict(model, X: np.ndarray) -> np.ndarray:
    """Deterministic probability prediction for any supported member kind."""
    if isinstance(model, MlpModel):
        return predict_mlp(model, X)
    return predict_logistic(model, X)


def ensemble_predict(e: Ensemble, X: np.ndarray) -> np.ndarray:
    """Arithmetic mean of member probabilities.

    Uses the anchored mean so that an ensemble of identical members
    reproduces the single-member prediction bitwise.
    """
    preds = np.stack([member_predict(m, X) for m in e.members])
    return anchored_mean(preds, axis=0)


def train_deep_ensemble(train: Dataset, val: Dataset, cfg: TrainConfig,
                        rng: SeededRng, M: int = 5,
                        weighting: bool = False) -> Ensemble:
    """M independent train_mlp runs on the same data.

    Each member owns a child rng stream, so initializations and shuffle
    orders differ across members but the whole ensemble is seed-reproducible.
    """
    if M < 1:
        raise ParameterError(f"ensemble size must be at least 1, got {M}")
    members = tuple(train_mlp(train, val, cfg, rng.split(f"member{i}"), weighting)
                    for i in range(M))
    return Ensemble(members=members)
