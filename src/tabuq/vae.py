"""Linear Gaussian VAE used as a novelty detector.

Encoder and decoder are single linear maps (no hidden layers). The encoder
produces a diagonal Gaussian over the latent space; the decoder produces a
diagonal Gaussian over feature space with a learned per-dimension variance.
Training runs `numeric.minibatch_adam` on the negative ELBO over one flat
vector of all eight parameter arrays, with one reparameterized latent sample
per datum per step; log-variances are clamped to [-10, 10]. Each train_vae
call owns shape-keyed step buffers (numeric.step_buffer), freed when it
returns; the step allocates afresh when given none.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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

    @classmethod
    def toy(cls) -> "VaeConfig":
        return cls(latent_dim=2)


def _encode(model: VaeModel, X: np.ndarray,
            buf: dict | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latent mean, clamped log-variance, and the pre-clamp raw log-variance."""
    shape = (X.shape[0], model.latent_dim)
    e_mu = np.matmul(X, model.enc_w_mu, out=step_buffer(buf, "e_mu", shape))
    e_mu += model.enc_b_mu
    e_lv_raw = np.matmul(X, model.enc_w_lv, out=step_buffer(buf, "e_lv_raw", shape))
    e_lv_raw += model.enc_b_lv
    e_lv = np.clip(e_lv_raw, LOGVAR_MIN, LOGVAR_MAX, out=step_buffer(buf, "e_lv", shape))
    return e_mu, e_lv, e_lv_raw


def _decode(model: VaeModel, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d_mu = z @ model.dec_w_mu + model.dec_b_mu
    d_lv_raw = z @ model.dec_w_lv + model.dec_b_lv
    return d_mu, np.clip(d_lv_raw, LOGVAR_MIN, LOGVAR_MAX), d_lv_raw


def decoder_nll(X: np.ndarray, d_mu: np.ndarray, d_lv: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood under the decoder's diagonal Gaussian."""
    r = X - d_mu
    return 0.5 * (d_lv + r * r * np.exp(-d_lv) + LOG_2PI).sum(axis=1)


def vae_loss_and_grads(model: VaeModel, X: np.ndarray, eps: np.ndarray,
                       buf: dict | None = None) -> tuple[float, tuple[np.ndarray, ...]]:
    """Negative-ELBO loss and analytic gradients in VaeModel field order.

    The loss is the decoder NLL plus the closed-form KL(q(z|x) || N(0, I)).
    Clamped log-variance coordinates receive zero gradient through the clamp.
    The reparameterization path contributes d z / d e_lv = eps * s / 2 with
    s = exp(e_lv / 2). The (rows, latent) intermediates are step buffers.
    """
    X = checked_inputs(X, model.n_features)
    n = X.shape[0]
    shape = (n, model.latent_dim)
    e_mu, e_lv, e_lv_raw = _encode(model, X, buf)
    s = np.multiply(0.5, e_lv, out=step_buffer(buf, "s", shape))
    np.exp(s, out=s)
    z = np.multiply(s, eps, out=step_buffer(buf, "z", shape))
    z += e_mu
    d_mu, d_lv, d_lv_raw = _decode(model, z)
    r = X - d_mu
    inv_var = np.exp(-d_lv)
    exp_e_lv = np.exp(e_lv, out=step_buffer(buf, "exp_e_lv", shape))
    kl = np.multiply(e_mu, e_mu, out=step_buffer(buf, "kl", shape))
    kl += exp_e_lv
    kl -= e_lv
    kl -= 1.0
    loss = float((decoder_nll(X, d_mu, d_lv) + 0.5 * kl.sum(axis=1)).mean())

    mask_x = ((d_lv_raw > LOGVAR_MIN) & (d_lv_raw < LOGVAR_MAX)).astype(np.float64)

    delta_dmu = -r * inv_var / n
    delta_dlv = mask_x * 0.5 * (1.0 - r * r * inv_var) / n
    g_dec_w_mu = z.T @ delta_dmu
    g_dec_b_mu = delta_dmu.sum(axis=0)
    g_dec_w_lv = z.T @ delta_dlv
    g_dec_b_lv = delta_dlv.sum(axis=0)

    dz = np.matmul(delta_dmu, model.dec_w_mu.T, out=step_buffer(buf, "dz", shape))
    dz += np.matmul(delta_dlv, model.dec_w_lv.T, out=step_buffer(buf, "dz_lv", shape))
    de_mu = np.divide(e_mu, n, out=step_buffer(buf, "de_mu", shape))
    de_mu += dz
    de_lv = np.multiply(dz, eps, out=step_buffer(buf, "de_lv", shape))
    de_lv *= 0.5
    de_lv *= s
    exp_e_lv -= 1.0  # the KL has read exp(e_lv); it becomes 0.5 * (exp(e_lv) - 1) / n
    exp_e_lv *= 0.5
    exp_e_lv /= n
    de_lv += exp_e_lv
    # Zero the clamped coordinates: the gate is e_lv_raw > min, then e_lv_raw < max.
    de_lv *= np.greater(e_lv_raw, LOGVAR_MIN, out=step_buffer(buf, "gate", shape, bool))
    de_lv *= np.less(e_lv_raw, LOGVAR_MAX, out=step_buffer(buf, "gate", shape, bool))
    g_enc_w_mu = X.T @ de_mu
    g_enc_b_mu = de_mu.sum(axis=0)
    g_enc_w_lv = X.T @ de_lv
    g_enc_b_lv = de_lv.sum(axis=0)

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
    """Minibatch Adam on the negative ELBO for a fixed number of epochs."""
    if train.n < 1:
        raise DataError("training set is empty")
    model = init_vae(train.d, cfg, rng.split("init"))
    buf = {}  # the step buffers, one set per batch row count

    def loss_and_grads(flat, idx, members, epoch, batch):
        eps = rng.split("eps").split(f"{epoch}.{batch}").normal((idx.shape[1], cfg.latent_dim))
        loss, grads = vae_loss_and_grads(model.with_flat(flat[0]), train.features[idx[0]],
                                         eps, buf)
        return [loss], flatten(grads)[None]

    for _, flat, _ in minibatch_adam(flatten(model.params())[None], loss_and_grads, train.n,
                                     cfg.batch_size, cfg.epochs, cfg.lr, [rng]):
        pass
    return model.with_flat(flat[0])


def vae_novelty_score(model: VaeModel, X: np.ndarray, rng: SeededRng,
                      S: int = 10) -> np.ndarray:
    """Mean decoder NLL over S latent samples; higher means more novel.

    The S reparameterization draws are shared across rows, so duplicate rows
    always receive identical scores under a fixed seed.
    """
    if S < 1:
        raise ParameterError(f"need at least one latent sample, got S={S}")
    X = checked_inputs(X, model.n_features)
    e_mu, e_lv, _ = _encode(model, X)
    s = np.exp(0.5 * e_lv)
    eps = rng.normal((S, model.latent_dim))
    total = np.zeros(X.shape[0])
    for k in range(S):
        z = e_mu + s * eps[k]
        d_mu, d_lv, _ = _decode(model, z)
        total += decoder_nll(X, d_mu, d_lv)
    return total / S
