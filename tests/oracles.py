"""Slow reference implementations that the tests check the package against.

No code in the package calls these: they exist so that an analytic gradient
can be compared with a numerical one, an optimized scorer or trainer with
the plain loop it replaces, and a shared objective with the one it replaces.
"""
from typing import Callable

import numpy as np

import tabuq.numeric
from tabuq.data import Dataset
from tabuq.errors import ParameterError, TrainingError
from tabuq.mlp import PROB_CLAMP, MlpModel, TrainConfig, init_mlp, mlp_loss, mlp_loss_and_grads
from tabuq.numeric import (AdamState, adam_step, anchored_mean, checked_inputs, dropout_mask,
                           flatten, sigmoid)
from tabuq.rng import SeededRng
from tabuq.vae import LOGVAR_MAX, LOGVAR_MIN, VaeModel, _decode, _encode, decoder_nll


def finite_difference_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                               h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise ParameterError(f"step h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.ravel()[i] += h
        xm.ravel()[i] -= h
        flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """The logistic function branching on the sign of x: 1/(1 + exp(-x)) where
    x >= 0, and exp(x)/(1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def kl_to_standard_normal(e_mu: np.ndarray, e_lv: np.ndarray) -> np.ndarray:
    """Closed-form per-row KL(q(z|x) || N(0, I)) for diagonal Gaussians, as
    vae_loss_and_grads computes it in its step buffers."""
    return 0.5 * (e_mu * e_mu + np.exp(e_lv) - e_lv - 1.0).sum(axis=1)


def vae_loss(model: VaeModel, X: np.ndarray, eps: np.ndarray) -> float:
    """Negative ELBO (reconstruction NLL plus KL), mean over the batch.

    eps is the (N, latent) reparameterization draw; passing a frozen eps makes
    the loss a deterministic function of the parameters for gradient checks.
    """
    X = checked_inputs(X, model.n_features)
    e_mu, e_lv, _ = _encode(model, X)
    z = e_mu + np.exp(0.5 * e_lv) * eps
    d_mu, d_lv, _ = _decode(model, z)
    return float((decoder_nll(X, d_mu, d_lv) + kl_to_standard_normal(e_mu, e_lv)).mean())


def vae_loss_and_grads_reference(model: VaeModel, X: np.ndarray, eps: np.ndarray
                                 ) -> tuple[float, tuple[np.ndarray, ...]]:
    """vae_loss_and_grads as plain expressions on fresh arrays, exp(e_lv)
    computed twice, in the order the step buffers keep."""
    n = X.shape[0]
    e_mu, e_lv, e_lv_raw = _encode(model, X)
    s = np.exp(0.5 * e_lv)
    z = e_mu + s * eps
    d_mu, d_lv, d_lv_raw = _decode(model, z)
    r = X - d_mu
    inv_var = np.exp(-d_lv)
    loss = float((decoder_nll(X, d_mu, d_lv) + kl_to_standard_normal(e_mu, e_lv)).mean())
    mask_x = ((d_lv_raw > LOGVAR_MIN) & (d_lv_raw < LOGVAR_MAX)).astype(np.float64)
    mask_z = ((e_lv_raw > LOGVAR_MIN) & (e_lv_raw < LOGVAR_MAX)).astype(np.float64)
    delta_dmu = -r * inv_var / n
    delta_dlv = mask_x * 0.5 * (1.0 - r * r * inv_var) / n
    dz = delta_dmu @ model.dec_w_mu.T + delta_dlv @ model.dec_w_lv.T
    de_mu = dz + e_mu / n
    de_lv = mask_z * (dz * eps * 0.5 * s + 0.5 * (np.exp(e_lv) - 1.0) / n)
    return loss, (X.T @ de_mu, de_mu.sum(axis=0), X.T @ de_lv, de_lv.sum(axis=0),
                  z.T @ delta_dmu, delta_dmu.sum(axis=0), z.T @ delta_dlv, delta_dlv.sum(axis=0))


def keep_bits_reference(rng: SeededRng, rows: int, row_bytes: int, rate: float) -> np.ndarray:
    """keep_bits one unit at a time in plain Python. Each round reads one raw
    word per 64 units, and unit i takes bit i % 64 of word i // 64 as the next
    bit of its uniform U. A unit is decided at the first bit that differs from
    the rate's binary expansion: dropped where the rate's bit is 1, kept where
    it is 0. Units left when the expansion ends are kept, since U >= rate. Unit
    i is bit i % 8 of byte i // 8 of the result."""
    n_units = 64 * -(-rows * row_bytes // 8)
    num, den = rate.as_integer_ratio()
    digits = [int(c) for c in format(num, f"0{den.bit_length() - 1}b")] if num else []
    keep = [1] * n_units
    undecided = list(range(n_units))
    for digit in digits:
        if not undecided:
            break
        words = [int(w) for w in rng.random_raw(n_units // 64)]
        still = []
        for i in undecided:
            bit = words[i // 64] >> (i % 64) & 1
            if bit == digit:
                still.append(i)
            elif digit == 1:
                keep[i] = 0
        undecided = still
    out = [sum(keep[8 * j + b] << b for b in range(8)) for j in range(rows * row_bytes)]
    return np.array(out, dtype=np.uint8).reshape(rows, row_bytes)


def dropout_masks(model: MlpModel, n_rows: int, rng: SeededRng) -> list[np.ndarray]:
    """One network's (n_rows, width) boolean keep-mask per hidden layer, from
    one keep_bits draw of rng: the row's bits unpacked whole, and each layer's
    the next width of them after the padding of the layers before it to whole
    bytes. keep_bits is looked up on tabuq.numeric at each call, so a test
    that patches it there sees these draws too."""
    widths = [w.shape[1] for w in model.weights[:-1]]
    starts = np.cumsum([0] + [8 * -(-w // 8) for w in widths])
    bits = tabuq.numeric.keep_bits(rng, n_rows, starts[-1] // 8, model.dropout_rate)
    units = np.unpackbits(bits, axis=1, bitorder="little").astype(bool)
    return [units[:, start:start + w] for start, w in zip(starts, widths)]


def mc_dropout_reference(model: MlpModel, X: np.ndarray, rng: SeededRng,
                         T: int) -> np.ndarray:
    """MC dropout one plain forward pass at a time: pass t multiplies each
    hidden layer's relu output by its columns of dropout_mask's float mask
    (0 or 1/(1-rate)) of all hidden units, drawn from rng/pass<t>, each layer
    padded to whole bytes."""
    X = np.asarray(X, dtype=np.float64)
    widths = [w.shape[1] for w in model.weights[:-1]]
    starts = np.cumsum([0] + [8 * -(-w // 8) for w in widths])
    passes = []
    for t in range(T):
        mask = dropout_mask(rng.split(f"pass{t}"), (X.shape[0], starts[-1]), model.dropout_rate)
        h = X
        for w, b, start in zip(model.weights[:-1], model.biases[:-1], starts):
            h = np.maximum(h @ w + b, 0.0) * mask[:, start:start + w.shape[1]]
        p = sigmoid(h @ model.weights[-1] + model.biases[-1]).ravel()
        passes.append(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))
    return anchored_mean(np.stack(passes), axis=0)


def platt_objective_reference(params: np.ndarray, t: np.ndarray,
                              y: np.ndarray) -> tuple[float, np.ndarray]:
    """Platt scaling's BCE of sigmoid(a * t + b) against labels y in {0, 1},
    and its gradient in (a, b), written out on their own."""
    a, b = params
    z = a * t + b
    loss = float((y * np.maximum(-z, 0) + (1 - y) * np.maximum(z, 0)
                  + np.log1p(np.exp(-np.abs(z)))).mean())
    q = sigmoid(z)
    dz = (q - y) / y.size
    return loss, np.array([float(t @ dz), float(dz.sum())])


def train_mlp_reference(train: Dataset, val: Dataset, cfg: TrainConfig,
                        rng: SeededRng, weighting: bool) -> MlpModel:
    """One network trained on its own: minibatch Adam over its flat parameter
    vector, with the init, shuffle and dropout streams of rng, and early
    stopping that restores the best-validation-epoch snapshot. Epoch e draws
    one keep-mask row per training row from rng/dropout/<e>, and the batch at
    rows [start, end) of the shuffled order takes mask rows [start, end)."""
    model = init_mlp(train.d, cfg, rng.split("init"))
    flat = flatten(model.params())
    state = AdamState.for_params(flat, lr=cfg.lr)
    shuffle_rng, noise_rng = rng.split("shuffle"), rng.split("dropout")
    best, best_loss, epochs_since_improve = None, np.inf, 0
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.split(str(epoch)).permutation(train.n)
        epoch_masks = dropout_masks(model, train.n, noise_rng.split(str(epoch)))
        for start in range(0, train.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            step_model = model.with_flat(flat)
            masks = [m[start:start + len(idx)] for m in epoch_masks]
            loss, gw, gb = mlp_loss_and_grads(step_model, train.features[idx],
                                              train.labels[idx], weighting, masks)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            flat = adam_step(flat, flatten((*gw, *gb)), state)
        model = model.with_flat(flat)
        if cfg.patience is None:
            continue
        val_loss = mlp_loss(model, val.features, val.labels, weighting)
        if val_loss < best_loss:
            best, best_loss, epochs_since_improve = model, val_loss, 0
        else:
            epochs_since_improve += 1
            if epochs_since_improve >= cfg.patience:
                break
    return best if best is not None else model


def deep_ensemble_reference(train: Dataset, val: Dataset, cfg: TrainConfig,
                            rng: SeededRng, M: int, weighting: bool) -> tuple[MlpModel, ...]:
    """M networks trained one after another, member i on rng/member<i>."""
    return tuple(train_mlp_reference(train, val, cfg, rng.split(f"member{i}"), weighting)
                 for i in range(M))
