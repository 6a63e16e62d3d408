import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tabuq
from tabuq import (AdamState, SeededRng, adam_step, anchored_mean, dropout_mask,
                   flatten, minibatch_adam, minimize_gd, predict_logistic, predict_mlp,
                   sigmoid, unflatten, vae_novelty_score)
from tabuq.errors import ParameterError, ShapeError, TrainingError
from tabuq.logistic import LogisticModel
from tabuq.numeric import checked_inputs, keep_bits

from oracles import finite_difference_gradient, keep_bits_reference, sigmoid_reference

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def test_sigmoid_basics():
    assert sigmoid(np.array(0.0)) == 0.5
    assert sigmoid(np.array(1000.0)) == 1.0
    assert sigmoid(np.array(-1000.0)) == 0.0


@given(hnp.arrays(np.float64, 7, elements=finite_floats))
def test_sigmoid_symmetry_and_range(x):
    s = sigmoid(x)
    assert ((0 <= s) & (s <= 1)).all()
    np.testing.assert_allclose(s + sigmoid(-x), 1.0, atol=1e-12)


def _same_bits(a, b):
    """Equal values, NaN where the other has NaN, and equal signs elsewhere (so
    +0 differs from -0); a NaN's sign bit means nothing and is not compared."""
    numbers = ~np.isnan(a)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[numbers]), np.signbit(b[numbers])))


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan]


def test_sigmoid_matches_the_branching_reference_bitwise():
    rng = SeededRng(0)
    for spread in (1.0, 30.0, 300.0):
        x = rng.split(str(spread)).normal(100_000, std=spread)
        assert _same_bits(sigmoid(x), sigmoid_reference(x))
    edges = np.array(SIGMOID_EDGES)
    assert _same_bits(sigmoid(edges), sigmoid_reference(edges))
    assert _same_bits(sigmoid(edges.reshape(1, -1)), sigmoid_reference(edges.reshape(1, -1)))


@given(hnp.arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_sigmoid_matches_the_branching_reference_on_any_floats(x):
    assert _same_bits(sigmoid(x), sigmoid_reference(x))


def test_dropout_mask_rate_zero_is_identity():
    np.testing.assert_array_equal(dropout_mask(SeededRng(0), (4, 4), 0.0),
                                  np.ones((4, 4)))


def test_dropout_mask_values_and_mean():
    mask = dropout_mask(SeededRng(0), (100_000,), 0.5)
    assert set(np.unique(mask)) <= {0.0, 2.0}
    assert abs(mask.mean() - 1.0) < 0.01


def test_dropout_mask_deterministic():
    np.testing.assert_array_equal(dropout_mask(SeededRng(5), (8, 8), 0.3),
                                  dropout_mask(SeededRng(5), (8, 8), 0.3))


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
def test_dropout_mask_bad_rate(rate):
    with pytest.raises(ParameterError):
        dropout_mask(SeededRng(0), (2,), rate)


KEEP_RATES = [0.0, 5e-324, 0.25, 0.3, 0.5, 0.9, 1 - 2**-53]


@pytest.mark.parametrize("rows", [1, 13, 2000])
@pytest.mark.parametrize("widths", [(1,), (5,), (8,), (100,), (7, 3, 4)],
                         ids=["1", "5", "8", "100", "7-3-4"])
@pytest.mark.parametrize("rate", KEEP_RATES)
def test_keep_bits_match_the_unit_by_unit_reference(rate, widths, rows):
    row_bytes = sum(-(-w // 8) for w in widths)
    path = ("keep", repr(rate), str(widths), str(rows))
    np.testing.assert_array_equal(keep_bits(SeededRng(30, path), rows, row_bytes, rate),
                                  keep_bits_reference(SeededRng(30, path), rows, row_bytes, rate))


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.5, 0.9])
def test_keep_bits_keep_fraction_is_one_minus_rate(rate):
    n = 10**6
    kept = int(np.unpackbits(keep_bits(SeededRng(31), 1000, n // 8000, rate)).sum())
    p = 1.0 - rate
    assert abs(kept / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


def test_keep_bits_depend_only_on_the_stream_path():
    def draw(seed, label):
        return keep_bits(SeededRng(seed).split(label), 50, 13, 0.3)

    np.testing.assert_array_equal(draw(32, "a"), draw(32, "a"))
    assert not np.array_equal(draw(32, "a"), draw(32, "b"))
    assert not np.array_equal(draw(32, "a"), draw(33, "a"))


@pytest.mark.parametrize("rate, max_rounds, kept", [(5e-324, 64, 10**6), (1 - 2**-53, 53, 0)])
def test_keep_bits_extreme_rates_end(rate, max_rounds, kept, monkeypatch):
    draws = []
    real = SeededRng.random_raw
    monkeypatch.setattr(SeededRng, "random_raw",
                        lambda self, size: draws.append(size) or real(self, size))
    bits = keep_bits(SeededRng(34), 1000, 125, rate)
    assert 0 < len(draws) <= max_rounds
    assert int(np.unpackbits(bits).sum()) == kept


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, -5e-324, float("nan")])
def test_keep_bits_bad_rate(rate):
    with pytest.raises(ParameterError, match="dropout rate"):
        keep_bits(SeededRng(0), 2, 1, rate)


def test_checked_inputs():
    X = checked_inputs([[1, 2, 3]], 3)
    assert X.dtype == np.float64 and X.shape == (1, 3)
    assert checked_inputs(np.zeros((2, 4, 3)), 3, ndim=3).shape == (2, 4, 3)
    for bad in (np.zeros((4, 2)), np.zeros(3), np.zeros((1, 4, 3))):
        message = f"model expects (N, 3) inputs, got {bad.shape}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            checked_inputs(bad, 3)


def test_every_model_refuses_a_wrong_width_with_one_message(toy_mlp, toy_vae):
    X = np.zeros((4, 3))
    for predict in (lambda: predict_mlp(toy_mlp, X),
                    lambda: vae_novelty_score(toy_vae, X, SeededRng(0)),
                    lambda: predict_logistic(LogisticModel(np.zeros(2), 0.0), X)):
        with pytest.raises(ShapeError, match=re.escape("model expects (N, 2) inputs, got (4, 3)")):
            predict()


def test_adam_zero_gradient_keeps_params():
    p = np.array([1.0, -2.0])
    state = AdamState.for_params(p, lr=1e-3)
    p2 = adam_step(p, np.zeros(2), state)
    np.testing.assert_array_equal(p2, p)
    assert state.t == 1


def test_adam_first_step_magnitude():
    # At t=1 the bias-corrected update is lr * g / (|g| + eps'), i.e. ~lr.
    p = np.array([0.0])
    state = AdamState.for_params(p, lr=1e-3)
    p2 = adam_step(p, np.array([0.5]), state)
    assert abs(abs(p2[0]) - 1e-3) < 1e-6


def test_adam_constant_gradient_step_approaches_lr():
    p = np.array([0.0])
    state = AdamState.for_params(p, lr=1e-3)
    for _ in range(500):
        prev = p.copy()
        p = adam_step(p, np.array([0.5]), state)
    assert abs(abs(p[0] - prev[0]) - 1e-3) < 1e-5
    assert state.t == 500


def test_adam_shape_mismatch():
    state = AdamState.for_params(np.zeros(3), lr=1e-3)
    with pytest.raises(ShapeError):
        adam_step(np.zeros(3), np.zeros(2), state)


def test_adam_descends_quadratic():
    p = np.array([3.0, -2.0])
    state = AdamState.for_params(p, lr=1e-2)
    for _ in range(3000):
        p = adam_step(p, 2 * p, state)
    assert np.abs(p).max() < 1e-3


def test_flatten_unflatten_roundtrip_gives_views():
    arrays = [np.arange(6.0).reshape(2, 3), np.array([6.0, 7.0]), np.array([[8.0]])]
    flat = flatten(arrays)
    np.testing.assert_array_equal(flat, np.arange(9.0))
    parts = unflatten(flat, arrays)
    for a, b in zip(arrays, parts, strict=True):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
        assert np.shares_memory(b, flat)


def test_unflatten_size_mismatch():
    with pytest.raises(ShapeError, match="5 entries.*needs 4"):
        unflatten(np.zeros(5), [np.zeros((2, 2))])


def test_adam_on_flat_vector_matches_per_array_bitwise():
    # Adam is elementwise, so one state over the concatenation takes the
    # same steps as one state per array.
    rng = SeededRng(3)
    arrays = [rng.split("a").normal((4, 3)), rng.split("b").normal(3)]
    states = [AdamState.for_params(a, lr=0.01) for a in arrays]
    flat = flatten(arrays)
    flat_state = AdamState.for_params(flat, lr=0.01)
    for step in range(5):
        grads = [rng.split(f"g{step}.{i}").normal(a.shape) for i, a in enumerate(arrays)]
        arrays = [adam_step(a, g, s) for a, g, s in zip(arrays, grads, states)]
        flat = adam_step(flat, flatten(grads), flat_state)
    assert flatten(arrays).tobytes() == flat.tobytes()


def test_minibatch_adam_batches_streams_and_epochs():
    seen = []

    def loss_and_grads(flat, idx, members, epoch, batch):
        (rows,) = idx
        seen.append((sorted(rows.tolist()), list(members), epoch, batch))
        return flat @ flat[0], 2.0 * flat

    root = SeededRng(0, ("fit",))
    epochs = [(epoch, flat.copy(), list(members)) for epoch, flat, members in minibatch_adam(
        np.ones((1, 2)), loss_and_grads, 5, 2, 3, 0.1, [root])]
    assert [e for e, _, _ in epochs] == [0, 1, 2]
    assert [members for _, _, members in epochs] == [[0]] * 3
    assert epochs[-1][1][0, 0] < epochs[0][1][0, 0] < 1.0
    assert [call[1:] for call in seen] == [([0], e, b) for e in range(3) for b in range(3)]
    for epoch in range(3):
        rows = [i for idx, *_ in seen[3 * epoch:3 * epoch + 3] for i in idx]
        assert sorted(rows) == [0, 1, 2, 3, 4]
    first_epoch = root.split("shuffle").split("0").permutation(5)
    assert seen[0][0] == sorted(first_epoch[:2].tolist())


def quadratic_steps(rngs):
    """Loss and gradient of a quadratic whose gradient depends on each
    member's rows and its rngs[m]/noise/<e>.<b> stream, so a member moved or
    swapped shows."""
    def steps(flat, idx, members, epoch, batch):
        noise = np.stack([rngs[m].split("noise").split(f"{epoch}.{batch}").normal(flat.shape[1])
                          for m in members])
        grads = 2.0 * flat + noise + idx.sum(axis=1, keepdims=True)
        return (flat * flat).sum(axis=1), grads
    return steps


def test_minibatch_adam_stopped_member_leaves_the_stack():
    rngs = [SeededRng(0).split(f"member{m}") for m in range(3)]
    start = SeededRng(1).normal((3, 4))
    stacks = []
    for epoch, flat, members in minibatch_adam(start, quadratic_steps(rngs), 7, 3, 4, 0.1, rngs):
        stacks.append((list(members), flat))
        if epoch == 1:
            members.remove(1)
    assert [members for members, _ in stacks] == [[0, 1, 2]] * 2 + [[0, 2]] * 2
    for m in range(3):
        alone = [flat[0] for _, flat, _ in minibatch_adam(
            start[m:m + 1], quadratic_steps([rngs[m]]), 7, 3, 4 if m != 1 else 2, 0.1, [rngs[m]])]
        stacked = [flat[members.index(m)] for members, flat in stacks if m in members]
        np.testing.assert_array_equal(np.stack(stacked), np.stack(alone))


def test_minibatch_adam_ends_when_every_member_stops():
    rngs = [SeededRng(0), SeededRng(1)]
    gen = minibatch_adam(np.zeros((2, 3)), quadratic_steps(rngs), 4, 2, 5, 0.1, rngs)
    for epoch, _, members in gen:
        members.clear()
    assert epoch == 0


def test_minibatch_adam_non_finite_loss_names_epoch():
    def loss_and_grads(flat, idx, members, epoch, batch):
        return np.array([0.0, np.nan]), np.zeros_like(flat)

    with pytest.raises(TrainingError, match="epoch 0"):
        next(minibatch_adam(np.zeros((2, 3)), loss_and_grads, 4, 2, 1, 0.1,
                            [SeededRng(0), SeededRng(1)]))


# sha256 of the trained parameter bytes. vae-toy was recorded before the MLP
# and the VAE shared one trainer, and vae-csv before the training steps ran in
# reused buffers; the four MLP digests were recorded when dropout keep-masks
# became packed random bits drawn once per network per epoch. vae-csv's 360
# rows end each epoch on a short batch, and ensemble-100x100's members stop
# after 5, 5 and 3 epochs, so both step on several shapes. Any change that
# moves a random stream or reorders arithmetic changes them. The fits run in a
# child with one BLAS thread, because a threaded matrix product may sum in
# another order; the digests hold for numpy's OpenBLAS build on x86-64.
TRAINED_DIGESTS = {
    "mlp-toy": "0bae626bc9a895196edca19f3ca4778b6c6b2786b6b083bba166d49a1708449c",
    "mlp-100x100": "f3d9776d739bfc81d8191352ca60aa188b1b6637cc6bc3debd478372d0471294",
    "vae-toy": "8a62507157477ec1a2b4f8ebeb6bbe968a7527c8a48b97a1caf5472a7063bfb1",
    "ensemble-toy": "54213f009bb795097e008bbd6e734b83a8c903f52836cbdef377badc146f2885",
    "vae-csv": "91916e2dd380ca685b733fae706ccc3872994400c8db20e506cba983b95d80c0",
    "ensemble-100x100": "47eb6a4ccbf3f51320520c52eff817148cde1e8654d8eea1bb410112d53e471a",
}

TRAINING_SCRIPT = """
import hashlib
from tabuq import (SeededRng, ToyConfig, TrainConfig, VaeConfig, generate_synthetic,
                   generate_toy, split, train_deep_ensemble, train_mlp, train_vae)

def digest(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

rng = SeededRng(0)
toy = ToyConfig(mode="unbalanced")
train, val = generate_toy(toy, rng.split("train")), generate_toy(toy, rng.split("val"))
m, = train_mlp(train, val, TrainConfig.toy(), [SeededRng(1)], weighting=True)
print("mlp-toy", digest(m.params()))
tr, va, _ = split(generate_synthetic(SeededRng(3), n=600), (0.6, 0.2, 0.2), SeededRng(4))
m, = train_mlp(tr, va, TrainConfig(hidden=(100, 100), max_epochs=2, patience=1), [SeededRng(5)])
print("mlp-100x100", digest(m.params()))
print("vae-toy", digest(train_vae(train, VaeConfig.toy(), SeededRng(2)).params()))
e = train_deep_ensemble(train, val, TrainConfig.toy(), SeededRng(6), M=3, weighting=True)
print("ensemble-toy", digest([a for m in e for a in m.params()]))
print("vae-csv", digest(train_vae(tr, VaeConfig(epochs=2), SeededRng(7)).params()))
e = train_deep_ensemble(tr, va, TrainConfig(hidden=(100, 100), lr=3e-2, max_epochs=8, patience=1),
                        SeededRng(10), M=3)
print("ensemble-100x100", digest([a for m in e for a in m.params()]))
"""


def test_trained_parameters_keep_their_bits():
    src = Path(tabuq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", TRAINING_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert dict(line.split() for line in out.splitlines()) == TRAINED_DIGESTS


def test_finite_difference_on_square():
    g = finite_difference_gradient(lambda x: float((x ** 2).sum()),
                                   np.array([[3.0]]))
    assert abs(g[0, 0] - 6.0) < 1e-8


def test_finite_difference_constant():
    g = finite_difference_gradient(lambda x: 1.0, np.zeros((2, 3)))
    np.testing.assert_array_equal(g, np.zeros((2, 3)))


def test_finite_difference_sigmoid_slope():
    g = finite_difference_gradient(lambda x: float(sigmoid(x)[0, 0]),
                                   np.zeros((1, 1)))
    assert abs(g[0, 0] - 0.25) < 1e-8


def test_anchored_mean_of_identical_rows_is_bitwise_first():
    row = SeededRng(0).normal(10)
    stack = np.vstack([row, row, row])
    np.testing.assert_array_equal(anchored_mean(stack), row)


@given(hnp.arrays(np.float64, (4, 6), elements=finite_floats))
def test_anchored_mean_matches_numpy(values):
    np.testing.assert_allclose(anchored_mean(values), values.mean(axis=0),
                               rtol=1e-12, atol=1e-12)


def test_minimize_gd_solves_quadratic():
    def f_and_grad(x):
        return float(((x - 3.0) ** 2).sum()), 2 * (x - 3.0)

    x, gnorm, iters = minimize_gd(f_and_grad, np.zeros(4), tol=1e-10,
                                  max_iter=10_000)
    np.testing.assert_allclose(x, 3.0, atol=1e-9)
    assert gnorm <= 1e-10
    assert iters <= 10_000


def test_minimize_gd_respects_iteration_cap():
    # A quartic never hits gradient norm exactly 0, so tol=0 runs to the cap.
    def f_and_grad(x):
        return float((x ** 4).sum()), 4 * x ** 3

    _, gnorm, iters = minimize_gd(f_and_grad, np.full(3, 100.0), tol=0.0,
                                  max_iter=5)
    assert iters == 5
    assert gnorm > 0.0


def test_minimize_gd_monotone_under_armijo():
    # Backtracking line search never accepts an increase of f.
    def f_and_grad(x):
        return float(np.cosh(x).sum()), np.sinh(x)

    losses = []
    x = np.array([4.0, -3.0])
    for _ in range(50):
        x, _, _ = minimize_gd(f_and_grad, x, tol=0.0, max_iter=1)
        losses.append(f_and_grad(x)[0])
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
