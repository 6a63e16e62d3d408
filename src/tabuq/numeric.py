"""Dense numeric kernels shared by every model.

Matrices are plain 2-D float64 numpy arrays throughout the toolkit. All
public operations keep finite inputs finite; the sigmoid is evaluated in a
form that never overflows.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass, field
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
    else a contiguous view of the start of buf's one flat `name` array, which
    grows to the largest size asked and is reused by later steps of any shape.
    Each name keeps one dtype."""
    if buf is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = buf.get(name)
    if flat is None or flat.size < size:
        flat = buf[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


# beside_worker starts its thread only when the caller's step reaches this;
# smaller steps run mostly in Python and the threads only contend for the GIL.
# Median time of 100 MC-dropout passes on two threads against one, by scored
# rows x widest hidden layer, 15 alternating pairs, one BLAS thread on two
# cores: 12,500 (2,500 rows x [5], the toy grid) 2.11x, 40,000 (2,000 x
# [20, 20]) 1.29x, 30,000 (300 x [100, 100]) 1.19x, 70,000 (700 x [100, 100])
# 0.75x, 100,000 (1,000 x [100]) 0.80-0.99x, 100,000 (1,000 x [100, 100])
# 0.69x and 200,000 (2,000 x [100, 100], the CSV workloads) 0.58x.
WORKER_MIN = 65_536


def beside_worker(job: Callable[[], object], main: Callable[[], object],
                  name: str, step: int) -> tuple[object, object]:
    """(main(), job()), with job() run on a new thread named `name` while
    main() runs on the calling thread when `step` (the caller's measure of one
    unit of work) reaches WORKER_MIN. Below it no thread starts, and job() runs
    on the calling thread right after main().

    The thread runs in a copy of the caller's contextvars context, so under its
    numpy error state, and is joined before this returns or raises. An error of
    main() is raised first, then job()'s, with its own type and message, on the
    calling thread. The package's one worker thread.
    """
    if step < WORKER_MIN:
        return main(), job()
    outcome = []

    def run():
        try:
            outcome.append((job(), None))
        except BaseException as e:  # raised again on the caller's thread, below
            outcome.append((None, e))

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,), name=name)
    thread.start()
    try:
        value = main()
    finally:
        thread.join()
    job_value, error = outcome[0]
    if error is not None:
        raise error
    return value, job_value


def pin_blas_threads() -> tuple[str | None, bool]:
    """Set numpy's bundled OpenBLAS to one thread; returns (the library's path,
    or None if numpy bundles none, whether it now reports one thread).

    For a process that owns its thread budget, as the CLI does: the package
    runs its own second thread (beside_worker), and a threaded product sums in
    another order, so other thread counts write other bits. With another BLAS
    build, or a library without the scipy-openblas symbols, nothing changes.
    """
    import ctypes
    import glob
    import os

    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas*.so*")))
    if not libs:
        return None, False
    try:
        lib = ctypes.CDLL(libs[0])
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return libs[0], False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads(1)
    return libs[0], get_threads() == 1


def checked_inputs(X, width: int, ndim: int = 2) -> np.ndarray:
    """X as float64, or ShapeError unless it has ndim axes and `width` columns."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim or X.shape[-1] != width:
        raise ShapeError(f"model expects (N, {width}) inputs, got {X.shape}")
    return X


def dropout_scale(rate: float) -> float:
    """1/(1 - rate), inverted dropout's scale of a kept unit, or ParameterError
    unless rate is in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    return 1.0 / (1.0 - rate)


def keep_bits(rng: SeededRng, rows: int, row_bytes: int, rate: float) -> np.ndarray:
    """(rows, row_bytes) uint8 dropout keep bits in little bit order, each 1 with probability
    exactly 1 - `rate` (Knuth & Yao, 1976). Unit i reads its uniform U a bit per round (bit
    i % 64 of word i // 64 of rng.random_raw) against the rate's next binary digit. It is
    dropped where the rate's bit is larger, kept where U's is, and kept if tied to the end."""
    dropout_scale(rate)  # rejects a rate outside [0, 1)
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
    """Adam moment estimates for one flat parameter vector, or a stack of them,
    and the step buffers (see step_buffer) of adam_step's temporaries.

    Owned by exactly one training loop; `adam_step` mutates it in place.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    buf: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(params, dtype=np.float64),
                   v=np.zeros_like(params, dtype=np.float64), lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update of params, in place; returns params and
    mutates `state`, whose moments are updated in place too. Every element
    rounds as in params - lr * m_hat / (sqrt(v_hat) + eps) on fresh arrays,
    each operation being the same one in the same order. Its two temporaries
    are step buffers of state.buf, so a state reuses them from step to step."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"adam_step shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.m.shape}")
    state.t += 1
    step = step_buffer(state.buf, "step", params.shape)
    denom = step_buffer(state.buf, "denom", params.shape)
    state.m *= ADAM_BETA1
    state.m += np.multiply(1.0 - ADAM_BETA1, grads, out=step)
    state.v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grads, out=step)
    step *= grads
    state.v += step
    np.divide(state.m, 1.0 - ADAM_BETA1 ** state.t, out=step)  # m_hat
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.t, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    step *= state.lr
    step /= denom
    params -= step
    return params


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
    that list, as os.walk's caller prunes dirnames.

    The generator owns the parameter stack, a copy of `flat`, and its Adam
    moments, and steps them in place (adam_step) in its AdamState's step
    buffers. So the params array it passes and yields is one array from step
    to step until a member stops; then the rows of those still training are
    copied into a new one. A yielded array changes when the generator resumes,
    so a caller that keeps a snapshot copies it.
    """
    flat = np.array(flat, dtype=np.float64)
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
            adam_step(flat, grads, state)
        stepped = list(members)
        yield epoch, flat, members
        if not members:
            return
        if members != stepped:
            keep = [stepped.index(m) for m in members]
            flat, state.m, state.v = flat[keep], state.m[keep], state.v[keep]


def anchored_mean(values: np.ndarray, axis: int = 0,
                  overwrite_input: bool = False) -> np.ndarray:
    """Mean along `axis`, exact when all slices are identical.

    Computed as first + mean(rest - first) so that averaging M copies of the
    same array returns that array bitwise, which a plain sum-and-divide does
    not guarantee. The differences are taken in a copy of values, or with
    overwrite_input in a float64 `values` itself, as numpy.median's flag does:
    the same bits without a second array of its size.
    """
    values = (np.asarray if overwrite_input else np.array)(values, dtype=np.float64)
    first = np.take(values, 0, axis=axis)
    values -= np.expand_dims(first, axis)
    return first + values.mean(axis=axis)


# minimize_gd keeps the (s, y) pairs of its last this-many steps.
LBFGS_MEMORY = 8


def minimize_gd(f_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
                x0: np.ndarray, tol: float = 1e-6,
                max_iter: int = 10_000) -> tuple[np.ndarray, float, int]:
    """Minimize by L-BFGS directions (Liu & Nocedal, 1989) with a backtracking
    Armijo line search.

    The direction is -H g, H being the inverse-Hessian estimate that the
    two-loop recursion builds from the last LBFGS_MEMORY steps' pairs
    s = x_new - x, y = g_new - g, starting from (s.y / y.y) I of the newest.
    A step whose s.y is not positive keeps no pair and drops the others: on a
    nonconvex stretch they would steer every later step. With no pairs, or
    when g.d is not negative (or is NaN), the direction is -g. The line search
    tries steps 1, 1/2, 1/4, ... until f(x + step d) <= f(x) + 1e-4 step g.d,
    and gives up below a step of 1e-20.

    Deterministic: no randomness. Stops when the gradient L2 norm drops to
    `tol`, when no step descends, or after `max_iter` iterations. Returns
    (x, gradient norm, iterations used).
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    fx, g = f_and_grad(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []  # (s, y, s.y), oldest first
    it = 0
    for it in range(1, max_iter + 1):
        gnorm = float(np.sqrt(np.sum(g * g)))
        if gnorm <= tol:
            return x, gnorm, it - 1
        d = -_lbfgs_product(g, pairs)
        slope = float(g @ d)
        if not slope < 0.0:
            pairs.clear()
            d, slope = -g, -gnorm * gnorm
        step = 1.0
        while True:
            x_new = x + step * d
            f_new, g_new = f_and_grad(x_new)
            # NaN loss fails the comparison and backtracks too.
            if f_new <= fx + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-20:
                # No descent possible at floating-point resolution.
                return x, gnorm, it
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, sy))
            del pairs[:-LBFGS_MEMORY]
        else:
            pairs.clear()
        x, fx, g = x_new, f_new, g_new
    return x, float(np.sqrt(np.sum(g * g))), it


def _lbfgs_product(g: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """H g by the two-loop recursion: H is the BFGS inverse-Hessian estimate
    that the (s, y, s.y) pairs, oldest first, update from (s.y / y.y) I of
    the newest, or I with no pairs."""
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alpha = float(s @ q) / sy
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        _, y, sy = pairs[-1]
        q *= sy / float(y @ y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - float(y @ q) / sy) * s
    return q
