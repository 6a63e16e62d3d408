"""Slow reference implementations that the tests check the package against.

No code in the package calls these: they exist so that an analytic gradient
can be compared with a numerical one, and an optimized scorer with the plain
loop it replaces.
"""
from typing import Callable

import numpy as np

from tabuq.errors import ParameterError
from tabuq.mlp import PROB_CLAMP, MlpModel, _forward, _make_masks
from tabuq.numeric import anchored_mean
from tabuq.rng import SeededRng
from tabuq.vae import (VaeModel, _check_inputs, _decode, _encode, decoder_nll,
                       kl_to_standard_normal)


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


def vae_loss(model: VaeModel, X: np.ndarray, eps: np.ndarray) -> float:
    """Negative ELBO (reconstruction NLL plus KL), mean over the batch.

    eps is the (N, latent) reparameterization draw; passing a frozen eps makes
    the loss a deterministic function of the parameters for gradient checks.
    """
    X = _check_inputs(model, X)
    e_mu, e_lv, _ = _encode(model, X)
    z = e_mu + np.exp(0.5 * e_lv) * eps
    d_mu, d_lv, _ = _decode(model, z)
    return float((decoder_nll(X, d_mu, d_lv) + kl_to_standard_normal(e_mu, e_lv)).mean())


def mc_dropout_reference(model: MlpModel, X: np.ndarray, rng: SeededRng,
                         T: int) -> np.ndarray:
    """MC dropout one full forward pass at a time: pass t multiplies each
    hidden layer by dropout_mask's mask from rng/pass<t>/layer<i>."""
    X = np.asarray(X, dtype=np.float64)
    passes = []
    for t in range(T):
        masks = _make_masks(model, X.shape[0], rng.split(f"pass{t}"))
        y_hat, _, _ = _forward(model, X, masks)
        passes.append(np.clip(y_hat.ravel(), PROB_CLAMP, 1.0 - PROB_CLAMP))
    return anchored_mean(np.stack(passes), axis=0)
