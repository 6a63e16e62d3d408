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


def dropout_masks(model: MlpModel, n_rows: int, rng: SeededRng) -> list[np.ndarray]:
    """One network's (n_rows, width) boolean keep-mask per hidden layer, from
    rng/layer<i>. keep_mask is looked up on tabuq.numeric at each call, so a
    test that patches it there sees these draws too."""
    return [tabuq.numeric.keep_mask(rng.split(f"layer{i}"), (n_rows, w.shape[1]),
                                    model.dropout_rate)
            for i, w in enumerate(model.weights[:-1])]


def mc_dropout_reference(model: MlpModel, X: np.ndarray, rng: SeededRng,
                         T: int) -> np.ndarray:
    """MC dropout one plain forward pass at a time: pass t multiplies each
    hidden layer's relu output by dropout_mask's float mask (0 or 1/(1-rate))
    from rng/pass<t>/layer<i>."""
    X = np.asarray(X, dtype=np.float64)
    passes = []
    for t in range(T):
        pass_rng = rng.split(f"pass{t}")
        h = X
        for i, (w, b) in enumerate(zip(model.weights[:-1], model.biases[:-1])):
            mask = dropout_mask(pass_rng.split(f"layer{i}"), (X.shape[0], w.shape[1]),
                                model.dropout_rate)
            h = np.maximum(h @ w + b, 0.0) * mask
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
    stopping that restores the best-validation-epoch snapshot."""
    model = init_mlp(train.d, cfg, rng.split("init"))
    flat = flatten(model.params())
    state = AdamState.for_params(flat, lr=cfg.lr)
    shuffle_rng, noise_rng = rng.split("shuffle"), rng.split("dropout")
    best, best_loss, epochs_since_improve = None, np.inf, 0
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.split(str(epoch)).permutation(train.n)
        for b, start in enumerate(range(0, train.n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            step_model = model.with_flat(flat)
            masks = dropout_masks(step_model, len(idx), noise_rng.split(f"{epoch}.{b}"))
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
