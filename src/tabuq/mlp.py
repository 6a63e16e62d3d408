"""Class-weighted MLP classifier with hand-derived backpropagation.

Architecture: fully connected, relu hidden layers with inverted dropout,
sigmoid output. Training runs `numeric.minibatch_adam` on the weighted
binary cross-entropy over an (M, P) stack of M networks' flat parameter
vectors as one network of (M, in, out) weights; each run of consecutive
networks trains and validates on its own pair of sets, one pair per seed,
whose rows are stacked once per set. After each epoch each network's
validation loss decides its early stopping, which restores its best snapshot.
MC dropout's passes run through the training step's _forward. A train_mlp call
owns one dict of name-keyed step buffers (numeric.step_buffer), which its
validation passes share, and one (M, P) gradient buffer, and an
mc_dropout_predict call one dict per thread it may run passes on, freed when it
returns; _forward and the step allocate afresh when given none.
MC dropout folds its passes into one running (rows,) sum in pass order and
keeps no (T, rows) pass array. Large calls split their passes between the
calling thread and one worker thread (numeric.WORKER_MIN), which writes its
share into its own rows, folded in after the join, with the bits of the
one-thread loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numeric
from .data import Dataset
from .errors import DataError, ParameterError, ShapeError, TrainingError
from .numeric import (anchored_mean, beside_worker, checked_inputs, dropout_scale, flatten,
                      keep_bits, minibatch_adam, sigmoid, step_buffer, unflatten)
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
        if not 0.0 < self.lr < math.inf:
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

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


def _mask_layout(model: MlpModel) -> list[tuple[int, int, int]]:
    """(width, first byte, end byte) of each hidden layer's keep bits in a row of _make_masks'."""
    layout, lo = [], 0
    for w in model.weights[:-1]:
        width = w.shape[-1]
        layout.append((width, lo, lo + -(-width // 8)))
        lo = layout[-1][2]
    return layout


def _layer_masks(layout: list[tuple[int, int, int]], bits: np.ndarray) -> list[np.ndarray]:
    """Each hidden layer's boolean keep-mask, unpacked from its bytes of _make_masks' bits
    by the network's _mask_layout, which a caller makes once."""
    return [np.unpackbits(bits[..., lo:hi], axis=-1, count=w, bitorder="little").view(bool)
            for w, lo, hi in layout]


def predict_mlp(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Predicted positive-class probabilities, one per row of X, clamped into
    the open interval (0,1)."""
    y_hat, _ = _forward(model, X, None)
    return np.clip(y_hat.ravel(), PROB_CLAMP, 1.0 - PROB_CLAMP)


def mlp_loss(model: MlpModel, X: np.ndarray, labels: np.ndarray,
             weighting: bool, masks: list[np.ndarray] | None = None,
             buf: dict | None = None) -> float:
    """BCE of the forward pass, class-weighted by positive_weight(labels) when
    weighting is on; masks (see _make_masks) may be frozen for gradient checks.
    The hidden activations are buf's step buffers (see _forward)."""
    y_hat, _ = _forward(model, X, masks, buf)
    return weighted_bce_loss(y_hat[..., 0], labels, positive_weight(labels) if weighting else 1.0)


def mlp_loss_and_grads(model: MlpModel, X: np.ndarray, labels: np.ndarray,
                       weighting: bool, masks: list[np.ndarray] | None = None,
                       buf: dict | None = None, grads: Sequence[np.ndarray] | None = None
                       ) -> tuple[float | np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Each network's sum of its output column, plus analytic gradients for
    every weight matrix and bias vector.

    The sum stands in for the loss in minibatch_adam's finiteness check: the
    outputs are sigmoids in [0, 1] or NaN, and the BCE clips them into
    [LOG_CLAMP, 1 - LOG_CLAMP] under a finite class weight, so the sum is
    non-finite exactly where the BCE is, at the price of one sum; mlp_loss
    computes the BCE itself.
    Derivation: with p = sigmoid(z) and per-example weight w on positives,
    dL/dz = ((1-y)*p - w*y*(1-p)) / N, then standard backprop through the
    relu layers, each dropout layer's gradient scaled by 1/(1 - rate). The
    relu gate reads the masked and scaled layer input, so it is 0 wherever the
    keep bit is, and the gate alone applies the mask, to the same bits.
    A stack of networks (see _forward) takes (M, N) labels and returns M sums.
    Its hidden activations and relu gates are step buffers (see _forward), and each
    delta takes the memory of the layer input it is gated by. The output layer
    has width 1, so its backward product is an outer product, computed as a
    broadcast multiply. Given `grads`, arrays shaped as model.params(), the
    gradients are written into them, and they are returned.
    """
    y_hat, inputs = _forward(model, X, masks, buf)
    y = np.asarray(labels, dtype=np.float64)[..., None]
    n = y.shape[-2]
    w = positive_weight(labels) if weighting else 1.0
    total = y_hat.sum(axis=(-2, -1))

    delta = ((1.0 - y) * y_hat - np.asarray(w)[..., None, None] * y * (1.0 - y_hat)) / n
    k = len(model.weights)
    grads_w, grads_b = [None] * k, [None] * k
    if grads is None:
        grads = [None] * (2 * k)
    for i in range(k - 1, -1, -1):
        grads_w[i] = np.matmul(np.swapaxes(inputs[i], -1, -2), delta, out=grads[i])
        grads_b[i] = delta.sum(axis=-2, out=grads[k + i])
        if i > 0:
            # Layer i's input is read for the last time by its relu gate, so
            # the next delta takes its memory.
            gate = np.greater(inputs[i], 0, out=step_buffer(buf, "gate", inputs[i].shape, bool))
            backward = np.multiply if i == k - 1 else np.matmul
            delta = backward(delta, np.swapaxes(model.weights[i], -1, -2), out=inputs[i])
            if masks is not None:
                delta *= 1.0 / (1.0 - model.dropout_rate)
            delta *= gate
    return total, grads_w, grads_b


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


def train_mlp(train: Dataset | Sequence[Dataset], val: Dataset | Sequence[Dataset],
              cfg: TrainConfig, rngs: Sequence[SeededRng],
              weighting: bool = False) -> tuple[MlpModel, ...]:
    """Minibatch Adam on the weighted BCE with dropout, one network per stream of
    rngs, stacked and trained in lockstep; returns each one's best-val snapshot.

    train and val are each k sets of one (rows, features) shape, a lone Dataset
    being k = 1, and k divides len(rngs): the streams split into k runs of
    consecutive ones, and run i trains on train[i] and validates on val[i]
    (several seeds' networks, one run per seed). Network m draws its init,
    epoch shuffles and dropout masks from its own child streams of rngs[m] and
    trains on its run's sets, so it has the bits of a run on rngs[m] and those
    sets alone. ParameterError names the counts unless val holds k sets and k
    divides len(rngs), and ShapeError the shapes unless each side's sets share one.
    An epoch's first batch draws its keep bits from rngs[m]/dropout/<epoch>, a
    row per training row, and batch b takes rows [b * batch_size, ...) of them:
    M * n_rows * sum(ceil(w / 8)) bytes, 780 KB for five [100, 100] nets on 6,000 rows.
    Each stops early on its own validation loss, and then takes no more steps.
    weighting turns on the class-weighted loss (see weighted_bce_loss).

    A batch is gathered by np.take from one features array, the one training
    set's own or the k sets stacked into (k * n_rows, features), at the row
    offset of each member's set in it.
    minibatch_adam owns the stacked parameters and steps them in place. This
    call owns the step buffers and one (M, P) gradient buffer, whose leading
    rows, one per member still training, each step's gradients are written
    into with out=. Each member's validation loss runs in the same step
    buffers, which grow once to the validation rows if those outnumber a
    stacked batch's. The stacked model's views of the parameters, the layer
    views of those gradient rows and the members' row offsets are made again
    only when the parameter array changes, when a member stops; the keep
    bits' layer byte ranges are made once. A best-epoch snapshot is a copy of
    the member's parameters, and a returned network views its snapshot, or
    with no early stopping its row of the final parameters.
    """
    if not rngs:
        raise ParameterError("need at least one network to train, got no streams")
    trains = [train] if isinstance(train, Dataset) else list(train)
    vals = [val] if isinstance(val, Dataset) else list(val)
    for kind, sets in (("training", trains), ("validation", vals)):
        for s in sets[1:]:
            if s.features.shape != sets[0].features.shape:
                raise ShapeError(f"{kind} sets must share one shape, got "
                                 f"{sets[0].features.shape} and {s.features.shape}")
    k = len(trains)
    if not k or len(vals) != k or len(rngs) % k:
        raise ParameterError(f"need k training and k validation sets, k dividing the "
                             f"{len(rngs)} streams, got {k} and {len(vals)}")
    n, d = trains[0].n, trains[0].d
    if n < 1:
        raise DataError("training set is empty")
    if vals[0].n < 1:
        raise DataError("validation set is empty")
    if vals[0].d != d:
        raise ShapeError(f"train has {d} features, val has {vals[0].d}")

    run = len(rngs) // k  # the streams of each set
    features = trains[0].features if k == 1 else np.concatenate([s.features for s in trains])
    labels = trains[0].labels if k == 1 else np.concatenate([s.labels for s in trains])
    offsets = np.arange(len(rngs)) // run * n
    inits = [init_mlp(d, cfg, rng.split("init")) for rng in rngs]
    template = inits[0]
    layout = _mask_layout(template)
    buf = {}  # the step buffers, one per intermediate, shared by every stack and batch shape
    grad = np.empty((len(rngs), sum(a.size for a in template.params())))
    bits = None  # the epoch's keep bits of the members still training
    views = None  # (params, the stacked model viewing it, its rows of grad, their layer
    #               views, the row offsets of the members training)

    def loss_and_grads(flat, idx, members, epoch, batch):
        nonlocal bits, views
        if batch == 0:
            bits = _make_masks(template, n, [rngs[m].split("dropout").split(str(epoch))
                                             for m in members])
        if views is None or views[0] is not flat:
            rows = grad[:len(members)]
            views = (flat, template.with_flat(flat), rows, unflatten(rows, template.params()),
                     offsets[members, None])
        _, model, rows, layer_grads, starts = views
        masks = _layer_masks(layout, bits[:, batch * cfg.batch_size:(batch + 1) * cfg.batch_size])
        at = idx + starts
        total, _, _ = mlp_loss_and_grads(model, np.take(features, at, axis=0),
                                         np.take(labels, at), weighting, masks, buf, layer_grads)
        return total, rows

    best = {}  # member -> (best val loss, a copy of its params then, epochs since it improved)
    for epoch, flat, members in minibatch_adam(np.stack([flatten(m.params()) for m in inits]),
                                               loss_and_grads, n, cfg.batch_size,
                                               cfg.max_epochs, cfg.lr, rngs):
        for m, row in zip(list(members) if cfg.patience else (), flat):
            val_loss = mlp_loss(template.with_flat(row), vals[m // run].features,
                                vals[m // run].labels, weighting, buf=buf)
            if not np.isfinite(val_loss):
                raise TrainingError(f"non-finite validation loss at epoch {epoch}")
            loss, snapshot, stale = best.get(m, (np.inf, None, 0))
            best[m] = (val_loss, row.copy(), 0) if val_loss < loss else (loss, snapshot, stale + 1)
            if best[m][2] >= cfg.patience:
                members.remove(m)
    # Without early stopping best stays empty and every member is still in flat.
    return tuple(template.with_flat(best[m][1] if best else flat[m]) for m in range(len(rngs)))


def mc_dropout_predict(model: MlpModel, X: np.ndarray, rng: SeededRng,
                       T: int = 100) -> np.ndarray:
    """Mean over T stochastic dropout forward passes; pass t's masks are
    _make_masks' keep bits from rng/pass<t>, as training draws them.

    Each call draws every pass's bits afresh, so the same X and rng path give
    the same bits. Layer 0's relu(X @ W + b), times the dropout scale
    1/(1 - rate), and the keep bits' layer byte ranges are computed once per
    call; each pass masks layer 0 into a step buffer with one multiply, which
    gives the bits of masking first and scaling second, runs _forward on the
    network's tail, in the step buffers of its thread's dict, and clips its
    output. The calling thread adds each pass's difference from pass 0 to one
    (rows,) sum in pass order, the order in which anchored_mean sums a
    (T, rows) array, so no pass array is kept. With rows * widest hidden layer
    (the step, 0 when T <= 2) at numeric.WORKER_MIN or more, passes mid..T-1
    (mid = (T + 2) // 2) run on one worker thread (numeric.beside_worker) into
    a (T - mid, rows) array, folded in after the join; pass mid runs first on
    the calling thread, in the worker's dict. A one-row call keeps passes
    1..T-1 and averages the (T, 1) stack with anchored_mean, as numpy sums a
    single column pairwise rather than in pass order.
    """
    if T < 1:
        raise ParameterError(f"need at least one forward pass, got T={T}")
    X = checked_inputs(X, model.n_inputs)
    n = X.shape[0]
    # Scaling before masking is exact: (x * s) * keep == (x * keep) * s for keep in {0, 1}.
    first = np.maximum(X @ model.weights[0] + model.biases[0], 0.0)
    first *= dropout_scale(model.dropout_rate)
    tail = MlpModel(model.weights[1:], model.biases[1:], model.dropout_rate)
    layout = _mask_layout(model)

    def clipped_pass(t, buf):
        keep = _layer_masks(layout, _make_masks(model, n, [rng.split(f"pass{t}")])[0])
        h = np.multiply(first, keep[0], out=step_buffer(buf, "first", first.shape))
        p = _forward(tail, h, keep[1:], buf)[0].ravel()
        return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)

    step = n * max(w.shape[-1] for w in model.weights[:-1]) if T > 2 else 0
    mid = (T + 2) // 2 if step >= numeric.WORKER_MIN else T
    lo = 1 if n == 1 else mid  # passes lo..T-1 are kept in held
    held = np.empty((T - lo, n))
    buf, worker_buf = {}, {}
    anchor = clipped_pass(0, buf)
    total = anchor - anchor  # anchored_mean's zero first difference, where its sum starts

    def fold(p):
        np.add(total, np.subtract(p, anchor, out=p), out=total)

    def run(ts, buf):
        for t in ts:
            p = clipped_pass(t, buf)
            if t >= lo:
                held[t - lo] = p
            else:
                fold(p)

    if mid < T:
        # Pass mid allocates the worker's dict here: buffers first allocated
        # on the worker would stay in its malloc arena and lift the peak RSS.
        run([mid], worker_buf)
    beside_worker(lambda: run(range(mid + 1, T), worker_buf), lambda: run(range(1, mid), buf),
                  "tabuq-mc-dropout", step)
    if n == 1:
        return anchored_mean(np.concatenate([anchor[None], held]), axis=0, overwrite_input=True)
    for p in held:
        fold(p)
    total /= T
    total += anchor
    return total
