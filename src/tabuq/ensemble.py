"""Averaged ensembles: a tuple of members and the mean of their predictions."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .mlp import MlpModel, TrainConfig, train_mlp
from .numeric import anchored_mean
from .rng import SeededRng


def ensemble_predict(predict: Callable[[object, np.ndarray], np.ndarray],
                     members: Sequence, X: np.ndarray) -> np.ndarray:
    """Arithmetic mean of predict(member, X) over the members.

    Uses the anchored mean so that an ensemble of identical members
    reproduces the single-member prediction bitwise, taken in place in the
    stack of predictions.
    """
    return anchored_mean(np.stack([predict(m, X) for m in members]), axis=0, overwrite_input=True)


def train_deep_ensemble(train: Dataset, val: Dataset, cfg: TrainConfig,
                        rng: SeededRng, M: int = 5,
                        weighting: bool = False) -> tuple[MlpModel, ...]:
    """M networks on the same data, trained as one stacked train_mlp run.

    Member m owns the child stream rng/member<m>, so initializations and
    shuffle orders differ across members but the whole ensemble is
    seed-reproducible, and each member has the bits of its own run.
    """
    return train_mlp(train, val, cfg, [rng.split(f"member{i}") for i in range(M)], weighting)
