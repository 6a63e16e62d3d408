"""Linear Gaussian VAE used as a novelty detector.

Encoder and decoder are single linear maps (no hidden layers). The encoder
produces a diagonal Gaussian over the latent space; the decoder produces a
diagonal Gaussian over feature space with a learned per-dimension variance.
Training runs `numeric.minibatch_adam` on the negative ELBO over one flat
vector of all eight parameter arrays, with one reparameterized latent sample
per datum per step; log-variances are clamped to [-10, 10]. Training encodes
through _encode and decodes each step's sample through _decode. Novelty scoring
shares the encoder's log-variance map, _encode_logvar, and folds its mean map
into the decoder: both are linear, so the latent means never form, and all the
samples decode in one matrix product. Each train_vae call
owns name-keyed step buffers (numeric.step_buffer) and one gradient buffer,
freed when it returns; _encode and the step allocate afresh when given none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .data import Dataset
from .errors import DataError, ParameterError
from .numeric import checked_inputs, flatten, minibatch_adam, step_buffer, unflatten
from .rng import SeededRng

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class VaeModel:
    enc_w_mu: np.ndarray
    enc_b_mu: np.ndarray
    enc_w_lv: np.ndarray
    enc_b_lv: np.ndarray
    dec_w_mu: np.ndarray
    dec_b_mu: np.ndarray
    dec_w_lv: np.ndarray
    dec_b_lv: np.ndarray

    @property
    def n_features(self) -> int:
        return self.enc_w_mu.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.enc_w_mu.shape[1]

    def params(self) -> tuple[np.ndarray, ...]:
        """Every parameter array in field order (the flat order)."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def with_flat(self, flat: np.ndarray) -> "VaeModel":
        """The same shapes with parameters viewed from a flat vector."""
        return VaeModel(*unflatten(flat, self.params()))


@dataclass(frozen=True)
class VaeConfig:
    latent_dim: int = 500
    batch_size: int = 256
    epochs: int = 30
    lr: float = 1e-3
    samples: int = 10

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ParameterError(f"latent dimension must be positive, got {self.latent_dim}")
        if self.batch_size < 1 or self.epochs < 1 or self.samples < 1:
            raise ParameterError("batch_size, epochs and samples must be positive")
        if not 0.0 < self.lr < math.inf:
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")

    @classmethod
    def toy(cls) -> "VaeConfig":
        return cls(latent_dim=2)


def _encode(model: VaeModel, X: np.ndarray,
            buf: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Latent mean and clamped log-variance, in step buffers."""
    shape = (X.shape[0], model.latent_dim)
    e_mu = np.matmul(X, model.enc_w_mu, out=step_buffer(buf, "e_mu", shape))
    e_mu += model.enc_b_mu
    return e_mu, _encode_logvar(model, X, step_buffer(buf, "e_lv", shape))


def _encode_logvar(model: VaeModel, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The encoder's clamped latent log-variance, written into out if given."""
    e_lv = np.matmul(X, model.enc_w_lv, out=out)
    e_lv += model.enc_b_lv
    return np.clip(e_lv, LOGVAR_MIN, LOGVAR_MAX, out=e_lv)


def _decode(model: VaeModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d_lv = z @ model.dec_w_lv + model.dec_b_lv
    return z @ model.dec_w_mu + model.dec_b_mu, np.clip(d_lv, LOGVAR_MIN, LOGVAR_MAX, out=d_lv)


def decoder_nll(X: np.ndarray, d_mu: np.ndarray, d_lv: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood under the decoder's diagonal Gaussian."""
    r = X - d_mu
    return 0.5 * (d_lv + r * r * np.exp(-d_lv) + LOG_2PI).sum(axis=1)


def vae_loss_and_grads(model: VaeModel, X: np.ndarray, eps: np.ndarray,
                       buf: dict | None = None, grads: Sequence[np.ndarray] | None = None
                       ) -> tuple[float, tuple[np.ndarray, ...]]:
    """Negative-ELBO loss and analytic gradients in VaeModel field order.

    The loss is the decoder NLL plus the closed-form KL(q(z|x) || N(0, I)).
    Clamped log-variance coordinates receive zero gradient through the clamp.
    The reparameterization path contributes d z / d e_lv = eps * s / 2 with
    s = exp(e_lv / 2). The (rows, latent) intermediates are step buffers.
    Given `grads`, arrays shaped as model.params(), the gradients are written
    into them, and they are returned.
    """
    X = checked_inputs(X, model.n_features)
    n = X.shape[0]
    shape = (n, model.latent_dim)
    e_mu, e_lv = _encode(model, X, buf)
    # The clamp's gate, read before de_lv takes e_lv's memory. A clamped value
    # equals its bound, so min < e_lv < max reads the same as on the raw value.
    gate = np.greater(e_lv, LOGVAR_MIN, out=step_buffer(buf, "gate", shape, bool))
    gate &= np.less(e_lv, LOGVAR_MAX, out=step_buffer(buf, "gate_max", shape, bool))
    s = np.multiply(0.5, e_lv, out=step_buffer(buf, "s", shape))
    np.exp(s, out=s)
    z = np.multiply(s, eps, out=step_buffer(buf, "z", shape))
    z += e_mu
    d_mu, d_lv = _decode(model, z)
    r = X - d_mu
    inv_var = np.exp(-d_lv)
    exp_e_lv = np.exp(e_lv, out=step_buffer(buf, "exp_e_lv", shape))
    kl = np.multiply(e_mu, e_mu, out=step_buffer(buf, "kl", shape))
    kl += exp_e_lv
    kl -= e_lv
    kl -= 1.0
    loss = float((decoder_nll(X, d_mu, d_lv) + 0.5 * kl.sum(axis=1)).mean())

    mask_x = ((d_lv > LOGVAR_MIN) & (d_lv < LOGVAR_MAX)).astype(np.float64)

    delta_dmu = -r * inv_var / n
    delta_dlv = mask_x * 0.5 * (1.0 - r * r * inv_var) / n
    if grads is None:
        grads = [None] * 8
    g_dec_w_mu = np.matmul(z.T, delta_dmu, out=grads[4])
    g_dec_b_mu = delta_dmu.sum(axis=0, out=grads[5])
    g_dec_w_lv = np.matmul(z.T, delta_dlv, out=grads[6])
    g_dec_b_lv = delta_dlv.sum(axis=0, out=grads[7])

    # The backward arrays reuse the memory of forward ones read for the last
    # time above: dz takes z's, its second term kl's, de_mu e_mu's, de_lv e_lv's.
    dz = np.matmul(delta_dmu, model.dec_w_mu.T, out=z)
    dz += np.matmul(delta_dlv, model.dec_w_lv.T, out=kl)
    de_mu = np.divide(e_mu, n, out=e_mu)
    de_mu += dz
    de_lv = np.multiply(dz, eps, out=e_lv)
    de_lv *= 0.5
    de_lv *= s
    exp_e_lv -= 1.0  # the KL has read exp(e_lv); it becomes 0.5 * (exp(e_lv) - 1) / n
    exp_e_lv *= 0.5
    exp_e_lv /= n
    de_lv += exp_e_lv
    de_lv *= gate
    g_enc_w_mu = np.matmul(X.T, de_mu, out=grads[0])
    g_enc_b_mu = de_mu.sum(axis=0, out=grads[1])
    g_enc_w_lv = np.matmul(X.T, de_lv, out=grads[2])
    g_enc_b_lv = de_lv.sum(axis=0, out=grads[3])

    return loss, (g_enc_w_mu, g_enc_b_mu, g_enc_w_lv, g_enc_b_lv,
                  g_dec_w_mu, g_dec_b_mu, g_dec_w_lv, g_dec_b_lv)


def init_vae(n_features: int, cfg: VaeConfig, rng: SeededRng) -> VaeModel:
    """Uniform init with bound 1/sqrt(fan_in) per map, like the MLP layers."""
    enc_bound = 1.0 / np.sqrt(n_features)
    dec_bound = 1.0 / np.sqrt(cfg.latent_dim)
    L, D = cfg.latent_dim, n_features
    return VaeModel(
        enc_w_mu=rng.split("enc_w_mu").uniform(-enc_bound, enc_bound, (D, L)),
        enc_b_mu=rng.split("enc_b_mu").uniform(-enc_bound, enc_bound, (L,)),
        enc_w_lv=rng.split("enc_w_lv").uniform(-enc_bound, enc_bound, (D, L)),
        enc_b_lv=rng.split("enc_b_lv").uniform(-enc_bound, enc_bound, (L,)),
        dec_w_mu=rng.split("dec_w_mu").uniform(-dec_bound, dec_bound, (L, D)),
        dec_b_mu=rng.split("dec_b_mu").uniform(-dec_bound, dec_bound, (D,)),
        dec_w_lv=rng.split("dec_w_lv").uniform(-dec_bound, dec_bound, (L, D)),
        dec_b_lv=rng.split("dec_b_lv").uniform(-dec_bound, dec_bound, (D,)),
    )


def train_vae(train: Dataset, cfg: VaeConfig, rng: SeededRng) -> VaeModel:
    """Minibatch Adam on the negative ELBO for a fixed number of epochs.

    minibatch_adam owns the (1, P) parameters and steps them in place; this
    call owns the step buffers and a (1, P) gradient buffer that each step's
    gradients are written into with out=. The model viewing the parameters is
    made once, and again only if minibatch_adam passes another array. The
    returned model views minibatch_adam's final parameters.
    """
    if train.n < 1:
        raise DataError("training set is empty")
    model = init_vae(train.d, cfg, rng.split("init"))
    buf = {}  # the step buffers, one per intermediate, shared by every batch size
    grad = np.empty((1, sum(a.size for a in model.params())))
    layer_grads = unflatten(grad[0], model.params())
    views = None  # (params, the model viewing it)

    def loss_and_grads(flat, idx, members, epoch, batch):
        nonlocal views
        if views is None or views[0] is not flat:
            views = flat, model.with_flat(flat[0])
        eps = rng.split("eps").split(f"{epoch}.{batch}").normal((idx.shape[1], cfg.latent_dim))
        loss, _ = vae_loss_and_grads(views[1], train.features[idx[0]], eps, buf, layer_grads)
        return [loss], grad

    for _, flat, _ in minibatch_adam(flatten(model.params())[None], loss_and_grads, train.n,
                                     cfg.batch_size, cfg.epochs, cfg.lr, [rng]):
        pass
    return model.with_flat(flat[0])


def vae_novelty_score(model: VaeModel, X: np.ndarray, rng: SeededRng,
                      S: int = 10) -> np.ndarray:
    """Mean decoder NLL over S latent samples; higher means more novel.

    The S reparameterization draws are shared across rows, so duplicate rows
    always receive identical scores under a fixed seed. The encoder's mean map
    and the decoder are linear, so every sample's outputs come from two
    products: with W = [dec_w_mu | dec_w_lv] and M[:, k] = eps[k][:, None] * W,
    sample k's decoder outputs are X @ (enc_w_mu @ W) + (enc_b_mu @ W + b) plus
    block k of s @ M, where s = exp(e_lv / 2) is made in place on the encoder's
    log-variance. s is the one (rows, latent) array, and each product runs over
    all rows at once, so that equal rows round alike; the NLL runs in place on
    the (rows, S, features) halves of s @ M. Those steps ignore overflow: a
    squared residual beyond the float range (a feature scaled by 1e300, say)
    scores +inf, which auc_roc ranks above every finite score. With finite
    decoder outputs every NLL term is finite or +inf, so no NaN forms there.
    """
    if S < 1:
        raise ParameterError(f"need at least one latent sample, got S={S}")
    X = checked_inputs(X, model.n_features)
    n, d = X.shape
    W = np.concatenate([model.dec_w_mu, model.dec_w_lv], axis=1)
    mean = X @ (model.enc_w_mu @ W)
    mean += model.enc_b_mu @ W + np.concatenate([model.dec_b_mu, model.dec_b_lv])
    s = _encode_logvar(model, X)
    s *= 0.5
    np.exp(s, out=s)
    eps = rng.normal((S, model.latent_dim))
    M = (eps.T[:, :, None] * W[:, None, :]).reshape(model.latent_dim, S * 2 * d)
    out = (s @ M).reshape(n, S, 2 * d)
    del s
    out += mean[:, None, :]
    d_mu, d_lv = out[:, :, :d], out[:, :, d:]
    np.clip(d_lv, LOGVAR_MIN, LOGVAR_MAX, out=d_lv)
    # decoder_nll's terms, in its order, written over d_mu.
    with np.errstate(over="ignore"):
        r = np.subtract(X[:, None, :], d_mu, out=d_mu)
        r *= r
        inv_var = np.negative(d_lv)
        r *= np.exp(inv_var, out=inv_var)
        r += d_lv
        r += LOG_2PI
        return (0.5 * r.sum(axis=2)).sum(axis=1) / S
