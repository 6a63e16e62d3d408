import numpy as np
import pytest

from tabuq import (LogisticModel, SeededRng, TrainConfig, ensemble_predict,
                   predict_logistic, predict_mlp, train_bootstrapped_lr,
                   train_deep_ensemble)
from tabuq.errors import ParameterError
from tabuq.mlp import init_mlp


def _lr(w, b):
    return LogisticModel(weights=np.asarray(w, dtype=np.float64), bias=b)


class TestEnsemblePredict:
    def test_identical_members_collapse_bitwise(self):
        m = init_mlp(2, TrainConfig(hidden=(4,)), SeededRng(1))
        X = SeededRng(2).normal((30, 2))
        np.testing.assert_array_equal(ensemble_predict(predict_mlp, (m,) * 5, X),
                                      predict_mlp(m, X))

    def test_two_member_hand_value(self):
        # Opposite biases: sigmoid(b) + sigmoid(-b) average to exactly 0.5.
        members = (_lr([0.0], 4.0), _lr([0.0], -4.0))
        p = ensemble_predict(predict_logistic, members, np.zeros((3, 1)))
        np.testing.assert_allclose(p, 0.5, atol=1e-12)

    def test_mean_stays_in_unit_interval(self):
        members = (_lr([100.0], 0.0), _lr([-100.0], 0.0))
        p = ensemble_predict(predict_logistic, members, np.linspace(-5, 5, 11).reshape(-1, 1))
        assert ((0.0 < p) & (p < 1.0)).all()


class TestTrainDeepEnsemble:
    def test_members_differ_pairwise(self, toy_balanced):
        train, val, _ = toy_balanced
        e = train_deep_ensemble(train, val, TrainConfig.toy(), M=3,
                                rng=SeededRng(4))
        outs = [predict_mlp(m, train.features[:5]) for m in e]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(outs[i], outs[j])

    def test_m1_equals_its_single_member(self, toy_balanced):
        train, val, _ = toy_balanced
        e = train_deep_ensemble(train, val, TrainConfig.toy(), M=1,
                                rng=SeededRng(5))
        X = val.features[:10]
        np.testing.assert_array_equal(ensemble_predict(predict_mlp, e, X),
                                      predict_mlp(e[0], X))

    def test_default_size_five(self, toy_balanced):
        train, val, _ = toy_balanced
        e = train_deep_ensemble(train, val, TrainConfig.toy(),
                                rng=SeededRng(6))
        assert type(e) is tuple and len(e) == 5

    def test_same_seed_identical(self, toy_balanced):
        train, val, _ = toy_balanced
        a = train_deep_ensemble(train, val, TrainConfig.toy(), M=2,
                                rng=SeededRng(7))
        b = train_deep_ensemble(train, val, TrainConfig.toy(), M=2,
                                rng=SeededRng(7))
        X = val.features[:8]
        np.testing.assert_array_equal(ensemble_predict(predict_mlp, a, X),
                                      ensemble_predict(predict_mlp, b, X))


def test_trainers_need_a_member(toy_balanced):
    train, val, _ = toy_balanced
    with pytest.raises(ParameterError):
        train_deep_ensemble(train, val, TrainConfig.toy(), SeededRng(8), M=0)
    with pytest.raises(ParameterError):
        train_bootstrapped_lr(train, SeededRng(8), M=0)
