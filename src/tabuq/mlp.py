"""Class-weighted MLP classifier with hand-derived backpropagation.

Architecture: fully connected, relu hidden layers with inverted dropout,
sigmoid output. Training runs `numeric.minibatch_adam` on the weighted
binary cross-entropy over an (M, P) stack of M networks' flat parameter
vectors as one network of (M, in, out) weights. After each epoch each one's
validation loss decides its early stopping, which restores its best snapshot.
Each train_mlp call owns shape-keyed step buffers (numeric.step_buffer), freed
when it returns; the step functions allocate afresh when given none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import DataError, ParameterError, ShapeError, TrainingError
from .numeric import (anchored_mean, checked_inputs, flatten, keep_bits, minibatch_adam,
                      sigmoid, step_buffer, unflatten)
from .rng import SeededRng

LOG_CLAMP = 1e-12
PROB_CLAMP = 1e-15


@dataclass(frozen=True)
class MlpModel:
    """Trained parameters: weights[i] maps layer i activations to layer i+1."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    dropout_rate: float = 0.5

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[-2]

    def params(self) -> tuple[np.ndarray, ...]:
        """Every parameter array, all weights then all biases (the flat order)."""
        return (*self.weights, *self.biases)

    def with_flat(self, flat: np.ndarray) -> "MlpModel":
        """The same architecture with parameters viewed from a flat vector."""
        arrays = unflatten(flat, self.params())
        k = len(self.weights)
        return MlpModel(tuple(arrays[:k]), tuple(arrays[k:]), self.dropout_rate)


@dataclass(frozen=True)
class TrainConfig:
    """MLP architecture and optimization settings.

    patience=None disables early stopping and runs exactly max_epochs.
    """

    hidden: tuple[int, ...] = (100, 100)
    dropout_rate: float = 0.5
    lr: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 100
    patience: int | None = 2

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be at least 1, got {self.batch_size}")
        if self.patience is not None and self.patience < 1:
            raise ParameterError(f"patience must be at least 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ParameterError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ParameterError(f"hidden sizes must be positive, got {self.hidden}")

    @classmethod
    def toy(cls) -> "TrainConfig":
        """Small-problem preset: one hidden layer of 5, batch 8, 20 fixed epochs."""
        return cls(hidden=(5,), batch_size=8, max_epochs=20, patience=None)


def positive_weight(labels: np.ndarray) -> float | np.ndarray:
    """w+ = (negative count)/(positive count) of each batch along the last axis
    (a float for one batch); 1.0 for a batch with no positives.

    With no positives the weighted term vanishes from the loss, so the
    fallback value never influences it; it only avoids a division by zero.
    """
    labels = np.asarray(labels)
    n_pos = labels.sum(axis=-1)
    return np.where(n_pos > 0, (labels.shape[-1] - n_pos) / np.maximum(n_pos, 1), 1.0)[()]


def weighted_bce_loss(probs: np.ndarray, labels: np.ndarray,
                      w: float | np.ndarray) -> float | np.ndarray:
    """Mean of -[w . y . log p + (1-y) . log(1-p)] over each batch along the
    last axis, w being each batch's positive-class weight (positive_weight's,
    or 1.0 for the plain BCE); a float for one batch."""
    probs = np.clip(np.asarray(probs, dtype=np.float64), LOG_CLAMP, 1.0 - LOG_CLAMP)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ShapeError(f"probabilities {probs.shape} do not match labels {labels.shape}")
    w = np.asarray(w)[..., None]
    terms = w * labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)
    return -terms.mean(axis=-1)


def _forward(model: MlpModel, X: np.ndarray, masks: list[np.ndarray] | None,
             buf: dict | None = None) -> tuple[np.ndarray, list]:
    """Forward pass; returns (output column, layer inputs).

    masks are _layer_masks' boolean keep-masks: each kept unit is scaled by
    1/(1 - rate) and each dropped one zeroed, as two in-place multiplies.
    A stack of M networks ((M, in, out) weights, (M, out) biases) takes (M, N, ·)
    inputs and masks, and computes each slice as that network's own pass does.
    Hidden layer i's activations are step_buffer(buf, "h<i>", ...) arrays.
    """
    X = checked_inputs(X, model.n_inputs, model.weights[0].ndim)
    inputs = [X]
    h = X
    for i in range(len(model.weights) - 1):
        w = model.weights[i]
        h = np.matmul(h, w, out=step_buffer(buf, f"h{i}", h.shape[:-1] + w.shape[-1:]))
        h += model.biases[i][..., None, :]
        np.maximum(h, 0.0, out=h)
        if masks is not None:
            h *= masks[i]
            h *= 1.0 / (1.0 - model.dropout_rate)
        inputs.append(h)
    return sigmoid(h @ model.weights[-1] + model.biases[-1][..., None, :]), inputs


def _make_masks(model: MlpModel, n_rows: int, rngs: Sequence[SeededRng]) -> np.ndarray:
    """(len(rngs), n_rows, sum(ceil(w / 8))) uint8 keep bits, hidden layer w's padded to
    whole bytes, stream r's slice keep_bits' from r. Training and MC dropout draw here."""
    row_bytes = sum(-(-w.shape[-1] // 8) for w in model.weights[:-1])
    return np.stack([keep_bits(r, n_rows, row_bytes, model.dropout_rate) for r in rngs])


def _layer_masks(model: MlpModel, bits: np.ndarray) -> list[np.ndarray]:
    """Each hidden layer's boolean keep-mask, unpacked from its bytes of _make_masks' bits."""
    widths = [w.shape[-1] for w in model.weights[:-1]]
    starts = np.cumsum([0] + [-(-w // 8) for w in widths])
    return [np.unpackbits(bits[..., lo:hi], axis=-1, count=w, bitorder="little").view(bool)
            for w, lo, hi in zip(widths, starts, starts[1:])]


def predict_mlp(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Predicted positive-class probabilities, one per row of X, clamped into
    the open interval (0,1)."""
    y_hat, _ = _forward(model, X, None)
    return np.clip(y_hat.ravel(), PROB_CLAMP, 1.0 - PROB_CLAMP)


def mlp_loss(model: MlpModel, X: np.ndarray, labels: np.ndarray,
             weighting: bool, masks: list[np.ndarray] | None = None) -> float:
    """BCE of the forward pass, class-weighted by positive_weight(labels) when
    weighting is on; masks (see _make_masks) may be frozen for gradient checks."""
    y_hat, _ = _forward(model, X, masks)
    return weighted_bce_loss(y_hat[..., 0], labels, positive_weight(labels) if weighting else 1.0)


def mlp_loss_and_grads(model: MlpModel, X: np.ndarray, labels: np.ndarray,
                       weighting: bool, masks: list[np.ndarray] | None = None,
                       buf: dict | None = None
                       ) -> tuple[float | np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Loss plus analytic gradients for every weight matrix and bias vector.

    Derivation: with p = sigmoid(z) and per-example weight w on positives,
    dL/dz = ((1-y)*p - w*y*(1-p)) / N, then standard backprop through the
    relu layers, with each dropout mask and its 1/(1 - rate) scale multiplying
    its layer's gradient. The relu gate reads the masked output, which is
    positive where the pre-activation is unless the mask is 0, and there the
    gradient is 0 already. w is computed once, for the loss and for dL/dz.
    A stack of networks (see _forward) takes (M, N) labels and returns M losses.
    Its hidden activations, deltas and relu gates are step buffers (see _forward).
    """
    y_hat, inputs = _forward(model, X, masks, buf)
    y = np.asarray(labels, dtype=np.float64)[..., None]
    n = y.shape[-2]
    w = positive_weight(labels) if weighting else 1.0
    loss = weighted_bce_loss(y_hat[..., 0], labels, w)

    delta = ((1.0 - y) * y_hat - np.asarray(w)[..., None, None] * y * (1.0 - y_hat)) / n
    grads_w: list[np.ndarray] = [None] * len(model.weights)
    grads_b: list[np.ndarray] = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = np.swapaxes(inputs[i], -1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = np.matmul(delta, np.swapaxes(model.weights[i], -1, -2),
                              out=step_buffer(buf, f"delta{i}", inputs[i].shape))
            if masks is not None:
                delta *= masks[i - 1]
                delta *= 1.0 / (1.0 - model.dropout_rate)
            delta *= np.greater(inputs[i], 0, out=step_buffer(buf, "gate", inputs[i].shape, bool))
    return loss, grads_w, grads_b


def init_mlp(n_features: int, cfg: TrainConfig, rng: SeededRng) -> MlpModel:
    """Uniform init with bound 1/sqrt(fan_in) for each layer's weights and bias."""
    sizes = (n_features,) + cfg.hidden + (1,)
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        bound = 1.0 / np.sqrt(sizes[i])
        layer_rng = rng.split(f"layer{i}")
        weights.append(layer_rng.split("w").uniform(-bound, bound, (sizes[i], sizes[i + 1])))
        biases.append(layer_rng.split("b").uniform(-bound, bound, (sizes[i + 1],)))
    return MlpModel(weights=tuple(weights), biases=tuple(biases),
                    dropout_rate=cfg.dropout_rate)


def train_mlp(train: Dataset, val: Dataset, cfg: TrainConfig,
              rngs: Sequence[SeededRng], weighting: bool = False) -> tuple[MlpModel, ...]:
    """Minibatch Adam on the weighted BCE with dropout, one network per stream of
    rngs, stacked and trained in lockstep; returns each one's best-val snapshot.

    Network m draws its init, epoch shuffles and dropout masks from its own
    child streams of rngs[m], so it has the bits of a run on rngs[m] alone.
    An epoch's first batch draws its keep bits from rngs[m]/dropout/<epoch>, a
    row per training row, and batch b takes rows [b * batch_size, ...) of them:
    M * n_rows * sum(ceil(w / 8)) bytes, 780 KB for five [100, 100] nets on 6,000 rows.
    Each stops early on its own validation loss, and then takes no more steps.
    weighting turns on the class-weighted loss (see weighted_bce_loss).
    """
    if not rngs:
        raise ParameterError("need at least one network to train, got no streams")
    if train.n < 1:
        raise DataError("training set is empty")
    if val.n < 1:
        raise DataError("validation set is empty")
    if val.d != train.d:
        raise ShapeError(f"train has {train.d} features, val has {val.d}")

    inits = [init_mlp(train.d, cfg, rng.split("init")) for rng in rngs]
    template = inits[0]
    buf = {}  # the step buffers, one set per (members, batch rows) shape
    bits = None  # the epoch's keep bits of the members still training

    def loss_and_grads(flat, idx, members, epoch, batch):
        nonlocal bits
        if batch == 0:
            bits = _make_masks(template, train.n, [rngs[m].split("dropout").split(str(epoch))
                                                   for m in members])
        masks = _layer_masks(template, bits[:, batch * cfg.batch_size:(batch + 1) * cfg.batch_size])
        loss, gw, gb = mlp_loss_and_grads(template.with_flat(flat), train.features[idx],
                                          train.labels[idx], weighting, masks, buf)
        return loss, np.concatenate([g.reshape(len(idx), -1) for g in (*gw, *gb)], axis=1)

    best = {}  # member -> (best val loss, its snapshot, epochs since it improved)
    for epoch, flat, members in minibatch_adam(np.stack([flatten(m.params()) for m in inits]),
                                               loss_and_grads, train.n, cfg.batch_size,
                                               cfg.max_epochs, cfg.lr, rngs):
        for m, row in zip(list(members) if cfg.patience else (), flat):
            model = template.with_flat(row)
            val_loss = mlp_loss(model, val.features, val.labels, weighting)
            if not np.isfinite(val_loss):
                raise TrainingError(f"non-finite validation loss at epoch {epoch}")
            loss, snapshot, stale = best.get(m, (np.inf, None, 0))
            best[m] = (val_loss, model, 0) if val_loss < loss else (loss, snapshot, stale + 1)
            if best[m][2] >= cfg.patience:
                members.remove(m)
    # Without early stopping best stays empty and every member is still in flat.
    return tuple(best[m][1] if best else template.with_flat(flat[m]) for m in range(len(rngs)))


def mc_dropout_predict(model: MlpModel, X: np.ndarray, rng: SeededRng,
                       T: int = 100, cache: dict | None = None) -> np.ndarray:
    """Mean over T stochastic dropout forward passes; pass t's masks are
    _make_masks' keep bits from rng/pass<t>, as training draws them.

    cache maps a row count N to the passes' keep bits drawn so far, as drawn:
    T * N * sum(ceil(h / 8)) bytes over the hidden widths h. A caller scoring
    several inputs with one model and rng path passes the same dict, so each
    pass's bits for N rows are drawn once. Layer 0's relu(X @ W + b) is computed
    once per call, and each pass runs in place with _forward's arithmetic.
    """
    if T < 1:
        raise ParameterError(f"need at least one forward pass, got T={T}")
    X = checked_inputs(X, model.n_inputs)
    n = X.shape[0]
    cache = {} if cache is None else cache
    keeps = cache.get(n, [])
    keeps += [_make_masks(model, n, [rng.split(f"pass{t}")])[0] for t in range(len(keeps), T)]
    cache[n] = keeps
    scale = 1.0 / (1.0 - model.dropout_rate)
    first = np.maximum(X @ model.weights[0] + model.biases[0], 0.0)
    hidden = [np.empty((n, w.shape[1])) for w in model.weights[:-1]]
    passes = np.empty((T, n))
    for t in range(T):
        keep = _layer_masks(model, keeps[t])
        h = np.multiply(first, keep[0], out=hidden[0])
        h *= scale
        for i in range(1, len(hidden)):
            h = np.matmul(h, model.weights[i], out=hidden[i])
            h += model.biases[i]
            np.maximum(h, 0.0, out=h)
            h *= keep[i]
            h *= scale
        passes[t] = sigmoid(h @ model.weights[-1] + model.biases[-1]).ravel()
    return anchored_mean(np.clip(passes, PROB_CLAMP, 1.0 - PROB_CLAMP, out=passes), axis=0)
