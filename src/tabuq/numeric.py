"""Dense numeric kernels shared by every model.

Matrices are plain 2-D float64 numpy arrays throughout the toolkit. All
public operations keep finite inputs finite; the sigmoid is evaluated in a
form that never overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, TrainingError
from .rng import SeededRng


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 1/(1 + t) or t/(1 + t) with t = exp(-|x|), never overflowing."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def step_buffer(buf: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized array for a step's intermediate `name`: fresh without buf,
    else buf's (name, shape) entry, made on first use and reused by later steps."""
    if buf is None:
        return np.empty(shape, dtype)
    if (name, shape) not in buf:
        buf[name, shape] = np.empty(shape, dtype)
    return buf[name, shape]


def checked_inputs(X, width: int, ndim: int = 2) -> np.ndarray:
    """X as float64, or ShapeError unless it has ndim axes and `width` columns."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != width:
        raise ShapeError(f"model expects (N, {width}) inputs, got {X.shape}")
    return X


def keep_bits(rng: SeededRng, rows: int, row_bytes: int, rate: float) -> np.ndarray:
    """(rows, row_bytes) uint8 dropout keep bits in little bit order, each 1 with probability
    exactly 1 - `rate` (Knuth & Yao, 1976). Unit i reads its uniform U a bit per round (bit
    i % 64 of word i // 64 of rng.random_raw) against the rate's next binary digit. It is
    dropped where the rate's bit is larger, kept where U's is, and kept if tied to the end."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    n_words = -(-rows * row_bytes // 8)
    num, den = float(rate).as_integer_ratio()
    keep = np.full(n_words, 2**64 - 1, np.uint64)
    undecided = keep.copy()
    for k in range(den.bit_length() - 2, -1, -1):  # the rate's digits, first to last
        digit = np.uint64(2**64 - 1 if num >> k & 1 else 0)
        differs = undecided & (rng.random_raw(n_words) ^ digit)
        keep ^= differs & digit
        undecided ^= differs
        if not undecided.any():
            break
    return keep.astype("<u8", copy=False).view(np.uint8)[:rows * row_bytes].reshape(rows, row_bytes)


def dropout_mask(rng: SeededRng, shape: tuple, rate: float) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability `rate`, else 1/(1-rate).

    The mask has elementwise expectation 1, so no rescaling is needed at
    inference time. The package applies keep_bits' masks and this scale as
    two multiplies (mlp._forward); the float form serves the benchmark and tests.
    """
    bits = keep_bits(rng, int(np.prod(shape[:-1])), -(-shape[-1] // 8), rate)
    keep = np.unpackbits(bits, axis=-1, count=shape[-1], bitorder="little")
    return keep.reshape(shape) / (1.0 - rate)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moment estimates for one flat parameter vector, or a stack of them.

    Owned by exactly one training loop; `adam_step` mutates it in place.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(params, dtype=np.float64),
                   v=np.zeros_like(params, dtype=np.float64), lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update. Returns new params; mutates `state`."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"adam_step shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.m.shape}")
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def flatten(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays raveled and concatenated, in order, into one float64 vector."""
    return np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)


def unflatten(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views into `flat` with the shapes of `like`, in order; inverse of flatten.
    An (M, P) stack of flat vectors gives (M, *shape) views."""
    flat = np.asarray(flat, dtype=np.float64)
    out, pos = [], 0
    for a in like:
        out.append(flat[..., pos:pos + a.size].reshape(flat.shape[:-1] + a.shape))
        pos += a.size
    if pos != flat.shape[-1]:
        raise ShapeError(f"parameter vector has {flat.shape[-1]} entries, model needs {pos}")
    return out


def minibatch_adam(flat: np.ndarray,
                   loss_and_grads: Callable[[np.ndarray, np.ndarray, list[int], int, int],
                                            tuple[np.ndarray, np.ndarray]],
                   n_rows: int, batch_size: int, epochs: int, lr: float,
                   rngs: Sequence[SeededRng]) -> Iterator[tuple[int, np.ndarray, list[int]]]:
    """Minibatch Adam over an (M, P) stack of flat parameter vectors, one
    member per stream of rngs, stepping in lockstep.

    Each epoch member m visits the rows in the order of rngs[m]/shuffle/<epoch>,
    in batches of `batch_size`. Batch b of epoch e calls loss_and_grads(params,
    row indices, members, e, b), with a params row and an index row per member
    still training, for their losses and stacked gradient; the callback derives
    any noise from rngs[members[j]] and must not change members. A non-finite
    loss raises TrainingError. Each epoch yields (epoch, params, members), row j
    of params being members[j]'s. The caller stops members by removing them from
    that list, as os.walk's caller prunes dirnames. Yielded arrays stay valid.
    """
    state = AdamState.for_params(flat, lr=lr)
    shuffle_rngs = [rng.split("shuffle") for rng in rngs]
    members = list(range(len(rngs)))
    for epoch in range(epochs):
        orders = np.stack([shuffle_rngs[m].split(str(epoch)).permutation(n_rows) for m in members])
        for b, start in enumerate(range(0, n_rows, batch_size)):
            losses, grads = loss_and_grads(flat, orders[:, start:start + batch_size],
                                           members, epoch, b)
            if not np.isfinite(losses).all():
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            flat = adam_step(flat, grads, state)
        stepped = list(members)
        yield epoch, flat, members
        if not members:
            return
        keep = [stepped.index(m) for m in members]
        flat, state.m, state.v = flat[keep], state.m[keep], state.v[keep]


def anchored_mean(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean along `axis`, exact when all slices are identical.

    Computed as first + mean(rest - first) so that averaging M copies of the
    same array returns that array bitwise, which a plain sum-and-divide does
    not guarantee.
    """
    values = np.asarray(values, dtype=np.float64)
    first = np.take(values, 0, axis=axis)
    return first + (values - np.expand_dims(first, axis)).mean(axis=axis)


def minimize_gd(f_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
                x0: np.ndarray, tol: float = 1e-6,
                max_iter: int = 10_000) -> tuple[np.ndarray, float, int]:
    """Full-batch gradient descent with backtracking line search.

    Deterministic: no randomness, fixed halving/doubling of the step size.
    Stops when the gradient L2 norm drops to `tol` or after `max_iter`
    iterations. Returns (x, gradient norm, iterations used).
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    fx, g = f_and_grad(x)
    step = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        gnorm = float(np.sqrt(np.sum(g * g)))
        if gnorm <= tol:
            return x, gnorm, it - 1
        step = step * 2.0
        while True:
            x_new = x - step * g
            f_new, g_new = f_and_grad(x_new)
            # NaN loss fails the comparison and backtracks too.
            if f_new <= fx - 1e-4 * step * gnorm * gnorm:
                break
            step *= 0.5
            if step < 1e-20:
                # No descent possible at floating-point resolution.
                return x, gnorm, it
        x, fx, g = x_new, f_new, g_new
    return x, float(np.sqrt(np.sum(g * g))), it
