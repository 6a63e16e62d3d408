import math

import numpy as np
import pytest

from tabuq import (LogisticModel, SeededRng, ToyConfig, ensemble_predict, generate_toy,
                   predict_logistic, train_bootstrapped_lr, train_logistic)
from tabuq.errors import DataError
from tabuq.logistic import logistic_objective

from conftest import make_dataset
from oracles import finite_difference_gradient


def test_predict_hand_value():
    m = LogisticModel(weights=np.array([2.0, -1.0]), bias=0.5)
    x = np.array([[1.0, 1.0]])
    expected = 1.0 / (1.0 + math.exp(-(2.0 - 1.0 + 0.5)))
    assert abs(predict_logistic(m, x)[0] - expected) < 1e-15


def test_predict_clamped_at_extremes():
    m = LogisticModel(weights=np.array([1000.0]), bias=0.0)
    p = predict_logistic(m, np.array([[1.0], [-1.0]]))
    assert 0.0 < p[1] and p[0] < 1.0


def test_objective_gradient_matches_finite_differences():
    rng = SeededRng(0)
    X = rng.split("x").normal((30, 4))
    y = (rng.split("y").random(30) < 0.3).astype(np.int64)
    params = rng.split("p").normal(5)

    _, grad = logistic_objective(params, X, y, w_pos=3.0, lam=0.7)
    fd = finite_difference_gradient(
        lambda q: logistic_objective(q.ravel(), X, y, w_pos=3.0, lam=0.7)[0],
        params.reshape(1, -1)).ravel()
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_bias_not_penalized():
    # lam only touches the weight part of the gradient, never the bias.
    X = np.array([[1.0], [-1.0]])
    y = np.array([1, 0])
    params = np.array([0.0, 5.0])
    _, g_small = logistic_objective(params, X, y, w_pos=1.0, lam=0.0)
    _, g_big = logistic_objective(params, X, y, w_pos=1.0, lam=100.0)
    assert g_small[-1] == g_big[-1]


def test_separable_1d_reaches_full_accuracy():
    d = make_dataset([[1.0], [-1.0], [1.0], [-1.0]], [1, 0, 1, 0])
    m = train_logistic(d, C=math.inf)
    assert m.weights[0] > 0
    preds = predict_logistic(m, d.features) > 0.5
    assert (preds == d.labels.astype(bool)).all()


def test_strong_penalty_shrinks_weights_to_base_rate():
    rng = SeededRng(1)
    d = make_dataset(rng.normal((200, 2)),
                     (rng.random(200) < 0.25).astype(np.int64))
    m = train_logistic(d, C=1e-9)
    assert np.abs(m.weights).max() < 1e-3
    base = d.labels.mean()
    assert abs(predict_logistic(m, np.zeros((1, 2)))[0] - base) < 0.02


def test_gradient_small_at_optimum():
    d = generate_toy(ToyConfig(mode="balanced"), SeededRng(2))
    m = train_logistic(d, C=1e-2)
    n = d.n
    w_pos = 1.0
    params = np.concatenate([m.weights, [m.bias]])
    _, grad = logistic_objective(params, d.features, d.labels, w_pos,
                                 lam=1.0 / (1e-2 * n))
    assert float(np.sqrt((grad ** 2).sum())) <= 1e-6


def test_weighting_requires_both_classes():
    d = make_dataset([[1.0], [2.0]], [0, 0])
    with pytest.raises(DataError):
        train_logistic(d, C=1.0, weighting=True)


def test_weighting_shifts_probabilities_up():
    d = generate_toy(ToyConfig(mode="unbalanced"), SeededRng(3))
    plain = train_logistic(d, C=math.inf)
    weighted = train_logistic(d, C=math.inf, weighting=True)
    grid = SeededRng(4).normal((100, 2), std=3.0)
    assert (predict_logistic(weighted, grid).mean()
            > predict_logistic(plain, grid).mean())


class TestBootstrappedLr:
    def test_default_size_and_kind(self):
        d = generate_toy(ToyConfig(mode="balanced"), SeededRng(5))
        e = train_bootstrapped_lr(d, rng=SeededRng(6))
        assert type(e) is tuple and len(e) == 5
        assert all(isinstance(m, LogisticModel) for m in e)

    def test_members_differ(self):
        d = generate_toy(ToyConfig(mode="balanced"), SeededRng(7))
        e = train_bootstrapped_lr(d, rng=SeededRng(8))
        w = np.array([m.weights for m in e])
        assert len(np.unique(w[:, 0])) > 1

    def test_same_seed_identical(self):
        d = generate_toy(ToyConfig(mode="balanced"), SeededRng(9))
        a = train_bootstrapped_lr(d, rng=SeededRng(10))
        b = train_bootstrapped_lr(d, rng=SeededRng(10))
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.weights, mb.weights)
            assert ma.bias == mb.bias

    def test_single_row_members_identical(self):
        d = make_dataset([[2.0]], [1])
        e = train_bootstrapped_lr(d, M=3, C=1.0, rng=SeededRng(11))
        w = {float(m.weights[0]) for m in e}
        assert len(w) == 1

    def test_prediction_is_member_mean(self):
        d = generate_toy(ToyConfig(mode="balanced"), SeededRng(12))
        e = train_bootstrapped_lr(d, rng=SeededRng(13))
        X = SeededRng(14).normal((20, 2))
        member_probs = np.vstack([predict_logistic(m, X) for m in e])
        np.testing.assert_allclose(ensemble_predict(predict_logistic, e, X),
                                   member_probs.mean(axis=0), atol=1e-12)

    def test_weighted_members_survive_skewed_resamples(self):
        # 1 positive among 12 rows: some bootstrap draws miss the positive
        # class entirely and must be redrawn rather than crash.
        X = np.arange(12, dtype=np.float64).reshape(12, 1)
        d = make_dataset(X, [1] + [0] * 11)
        e = train_bootstrapped_lr(d, M=10, C=1.0, rng=SeededRng(15),
                                  weighting=True)
        assert len(e) == 10
