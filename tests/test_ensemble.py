import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import tabuq.mlp
import tabuq.numeric
from tabuq import (LogisticModel, SeededRng, TrainConfig, ensemble_predict,
                   generate_synthetic, predict_logistic, predict_mlp, split,
                   train_bootstrapped_lr, train_deep_ensemble)
from tabuq.errors import ParameterError
from tabuq.mlp import init_mlp

import oracles


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


# (data, config, M, weighting). The toy training set has 200 rows, so batch 7
# leaves a short last batch. The [100,100] case overfits at lr 0.01, and its
# members stop after 5, 5, 5, 4 and 4 epochs.
ENSEMBLE_CASES = {
    "toy": ("toy", TrainConfig.toy(), 5, False),
    "toy-weighted": ("toy", TrainConfig.toy(), 5, True),
    "toy-one-member": ("toy", TrainConfig.toy(), 1, True),
    "toy-batch-7": ("toy", dataclasses.replace(TrainConfig.toy(), batch_size=7), 3, True),
    "three-hidden": ("toy", TrainConfig(hidden=(7, 3, 4), batch_size=16, max_epochs=8,
                                        patience=2), 3, False),
    "100x100-patience-1": ("synthetic", TrainConfig(hidden=(100, 100), batch_size=64,
                                                    max_epochs=10, patience=1, lr=0.01),
                           5, True),
}


def epochs_per_member(monkeypatch, train) -> tuple[tuple, Counter]:
    """Run train() and count each member's epochs: every epoch draws the
    member's keep bits once, from rng/member<i>/dropout/<e>."""
    counts = Counter()
    real = tabuq.numeric.keep_bits

    def counted(rng, rows, row_bytes, rate):
        counts[rng.path[-3]] += 1
        return real(rng, rows, row_bytes, rate)

    with monkeypatch.context() as patch:
        patch.setattr(tabuq.numeric, "keep_bits", counted)
        patch.setattr(tabuq.mlp, "keep_bits", counted)
        return train(), counts


@pytest.mark.parametrize("case", ENSEMBLE_CASES)
def test_stacked_ensemble_matches_per_member_training(case, toy_unbalanced, monkeypatch):
    data, cfg, M, weighting = ENSEMBLE_CASES[case]
    if data == "toy":
        train, val, _ = toy_unbalanced
    else:
        train, val, _ = split(generate_synthetic(SeededRng(6), n=300), (0.6, 0.2, 0.2),
                              SeededRng(4))
    def reference():
        return oracles.deep_ensemble_reference(train, val, cfg, SeededRng(5), M, weighting)

    expected, expected_epochs = epochs_per_member(monkeypatch, reference)
    stepped_rows = []
    real_adam = tabuq.numeric.adam_step

    def counted_adam(params, grads, state):
        stepped_rows.append(len(params))
        return real_adam(params, grads, state)

    monkeypatch.setattr(tabuq.numeric, "adam_step", counted_adam)
    members, epochs = epochs_per_member(
        monkeypatch, lambda: train_deep_ensemble(train, val, cfg, SeededRng(5), M, weighting))
    assert len(members) == M
    for member, reference in zip(members, expected, strict=True):
        for a, b in zip(member.params(), reference.params(), strict=True):
            np.testing.assert_array_equal(a, b)
    assert epochs == expected_epochs
    assert sum(stepped_rows) == math.ceil(train.n / cfg.batch_size) * sum(epochs.values())
    if cfg.patience == 1:
        assert len(set(epochs.values())) > 1
