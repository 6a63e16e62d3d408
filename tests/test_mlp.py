import dataclasses
import math

import numpy as np
import pytest

import tabuq.mlp
from tabuq import (Dataset, SeededRng, ToyConfig, TrainConfig, generate_toy,
                   mc_dropout_predict, mlp_loss, mlp_loss_and_grads, positive_weight,
                   predict_mlp, train_mlp, weighted_bce_loss)
from tabuq.errors import DataError, ParameterError, ShapeError, TrainingError
from tabuq.mlp import _layer_masks, _make_masks, init_mlp
from tabuq.numeric import flatten

from conftest import make_dataset
from oracles import dropout_masks, finite_difference_gradient, mc_dropout_reference


class TestPositiveWeight:
    def test_three_to_one(self):
        assert positive_weight(np.array([0, 0, 0, 1])) == 3.0

    def test_balanced(self):
        assert positive_weight(np.array([0, 1, 0, 1])) == 1.0

    def test_no_positives_falls_back_to_one(self):
        assert positive_weight(np.array([0, 0])) == 1.0


class TestWeightedBceLoss:
    def test_uniform_half_is_ln2(self):
        loss = weighted_bce_loss(np.full(8, 0.5), np.arange(8) % 2, 1.0)
        assert abs(loss - math.log(2)) < 1e-15

    def test_weighted_hand_value(self):
        # w+ = 3, all predictions 0.5: -(3*ln.5 + 3*ln.5)/4 = 1.5*ln2.
        labels = np.array([0, 0, 0, 1])
        loss = weighted_bce_loss(np.full(4, 0.5), labels, positive_weight(labels))
        assert abs(loss - 1.5 * math.log(2)) < 1e-15

    def test_perfect_predictions_clamped_near_zero(self):
        labels = np.array([0, 1])
        loss = weighted_bce_loss(np.array([0.0, 1.0]), labels, positive_weight(labels))
        assert 0.0 <= loss < 1e-10

    def test_balanced_weighting_equals_plain_bce(self):
        probs = np.array([0.2, 0.9, 0.4, 0.7])
        labels = np.array([0, 1, 0, 1])
        on = weighted_bce_loss(probs, labels, positive_weight(labels))
        off = weighted_bce_loss(probs, labels, 1.0)
        assert abs(on - off) < 1e-15


class TestInitAndParams:
    def test_layer_shapes(self):
        cfg = TrainConfig(hidden=(7, 4))
        m = init_mlp(3, cfg, SeededRng(0))
        assert [w.shape for w in m.weights] == [(3, 7), (7, 4), (4, 1)]
        assert [b.shape for b in m.biases] == [(7,), (4,), (1,)]

    def test_fan_in_bound(self):
        m = init_mlp(9, TrainConfig(hidden=(16,)), SeededRng(1))
        assert np.abs(m.weights[0]).max() <= 1.0 / math.sqrt(9)
        assert np.abs(m.weights[1]).max() <= 1.0 / math.sqrt(16)
        assert np.abs(m.biases[0]).max() <= 1.0 / math.sqrt(9)

    def test_deterministic(self):
        a = init_mlp(4, TrainConfig(), SeededRng(2))
        b = init_mlp(4, TrainConfig(), SeededRng(2))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_flatten_roundtrip_is_bitwise(self):
        m = init_mlp(5, TrainConfig(hidden=(6, 3)), SeededRng(3))
        m2 = m.with_flat(flatten(m.params()))
        for a, b in zip(m.params(), m2.params(), strict=True):
            np.testing.assert_array_equal(a, b)
        X = SeededRng(4).normal((10, 5))
        np.testing.assert_array_equal(predict_mlp(m, X), predict_mlp(m2, X))


class TestPredict:
    def test_output_range_and_shape(self, toy_mlp):
        X = SeededRng(0).normal((40, 2), std=10.0)
        p = predict_mlp(toy_mlp, X)
        assert p.shape == (40,)
        assert ((0.0 < p) & (p < 1.0)).all()

    def test_deterministic_without_dropout(self, toy_mlp):
        X = SeededRng(1).normal((5, 2))
        np.testing.assert_array_equal(predict_mlp(toy_mlp, X),
                                      predict_mlp(toy_mlp, X))

    def test_dimension_mismatch(self, toy_mlp):
        with pytest.raises(ShapeError):
            predict_mlp(toy_mlp, np.zeros((4, 3)))


class TestGradients:
    @pytest.mark.parametrize("weighting", [False, True])
    def test_backprop_matches_finite_differences(self, weighting):
        rng = SeededRng(10 + weighting)
        cfg = TrainConfig(hidden=(6, 4), dropout_rate=0.5)
        model = init_mlp(5, cfg, rng.split("init"))
        X = rng.split("x").normal((9, 5))
        y = (rng.split("y").random(9) < 0.4).astype(np.int64)
        masks = dropout_masks(model, 9, rng.split("mask"))

        _, grads_w, grads_b = mlp_loss_and_grads(model, X, y, weighting, masks)
        grads = flatten((*grads_w, *grads_b))

        def f(flat):
            return mlp_loss(model.with_flat(flat), X, y, weighting, masks)

        fd = finite_difference_gradient(f, flatten(model.params()))
        denom = np.maximum(1e-8, np.abs(grads) + np.abs(fd))
        assert (np.abs(grads - fd) / denom).max() < 1e-4

    def test_weighted_step_computes_the_class_weight_once(self, monkeypatch):
        calls = []
        real = tabuq.mlp.positive_weight

        def counted(labels):
            calls.append(labels)
            return real(labels)

        monkeypatch.setattr(tabuq.mlp, "positive_weight", counted)
        model = init_mlp(3, TrainConfig(hidden=(4,)), SeededRng(0))
        mlp_loss_and_grads(model, SeededRng(1).normal((6, 3)), np.array([0, 1, 0, 0, 1, 0]),
                           True, dropout_masks(model, 6, SeededRng(2)))
        assert len(calls) == 1


class TestMakeMasks:
    @pytest.mark.parametrize("rows", [1, 13, 2000])
    @pytest.mark.parametrize("hidden", [(1,), (5,), (8,), (100,), (7, 3, 4)],
                             ids=["1", "5", "8", "100", "7-3-4"])
    def test_layer_masks_unpack_each_layers_padded_bytes(self, hidden, rows):
        model = init_mlp(4, TrainConfig(hidden=hidden, dropout_rate=0.3), SeededRng(0))
        streams = [SeededRng(1, ("m", str(m))) for m in range(2)]
        bits = _make_masks(model, rows, streams)
        assert bits.dtype == np.uint8
        assert bits.shape == (2, rows, sum(-(-w // 8) for w in hidden))
        for m, stream in enumerate(streams):
            expected = dropout_masks(model, rows, SeededRng(1, stream.path))
            for a, b in zip(_layer_masks(model, bits), expected, strict=True):
                np.testing.assert_array_equal(a[m], b)


def _stacked_model(hidden, M, rng):
    """M=None: one network with 2-D weights; else a stack of M networks."""
    cfg = TrainConfig(hidden=hidden)
    if M is None:
        return init_mlp(4, cfg, rng)
    inits = [init_mlp(4, cfg, rng.split(f"member{m}")) for m in range(M)]
    return inits[0].with_flat(np.stack([flatten(m.params()) for m in inits]))


def _assert_same_step(a, b):
    (loss_a, gw_a, gb_a), (loss_b, gw_b, gb_b) = a, b
    np.testing.assert_array_equal(loss_a, loss_b)
    for ga, gb in zip((*gw_a, *gb_a), (*gw_b, *gb_b), strict=True):
        np.testing.assert_array_equal(ga, gb)


class TestStepBuffers:
    @pytest.mark.parametrize("weighting", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("M", [None, 1, 3])
    @pytest.mark.parametrize("hidden", [(6, 4), (100, 100)], ids=["6-4", "100-100"])
    def test_buffered_step_equals_allocating_step(self, hidden, M, masked, weighting):
        rng = SeededRng(20)
        model = _stacked_model(hidden, M, rng.split("init"))
        lead = () if M is None else (M,)
        buf = {}
        # Full, short, full: a reused buffer must not leak the last step's values.
        for step, n in enumerate((256, 37, 256)):
            step_rng = rng.split(f"step{step}")
            X = step_rng.split("x").normal(lead + (n, 4), std=2.0)
            y = (step_rng.split("y").random(lead + (n,)) < 0.3).astype(np.int64)
            masks = None
            if masked:
                bits = _make_masks(model, n, [step_rng.split(f"m{m}") for m in range(M or 1)])
                masks = _layer_masks(model, bits[0] if M is None else bits)
            _assert_same_step(mlp_loss_and_grads(model, X, y, weighting, masks, buf),
                              mlp_loss_and_grads(model, X, y, weighting, masks))
            if step == 1:
                two_shapes = dict(buf)
        assert buf.keys() == two_shapes.keys()
        assert all(buf[key] is two_shapes[key] for key in buf)
        assert {shape for _, shape in buf} == {lead + (n, h) for n in (256, 37) for h in hidden}

    def test_one_step_call_per_batch(self, toy_balanced, monkeypatch):
        # perfbench's tracer counts steps by wrapping this module attribute.
        calls = []
        real = tabuq.mlp.mlp_loss_and_grads

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(tabuq.mlp, "mlp_loss_and_grads", counted)
        train, val, _ = toy_balanced
        cfg = TrainConfig(hidden=(5,), batch_size=64, max_epochs=3, patience=None)
        train_mlp(train, val, cfg, [SeededRng(0), SeededRng(1)])
        assert len(calls) == cfg.max_epochs * math.ceil(train.n / cfg.batch_size)
        assert calls[-1] == (2, train.n % cfg.batch_size, 2)


class TestTrainMlp:
    def test_separable_toy_accuracy(self, toy_balanced, toy_mlp):
        train, _, _ = toy_balanced
        preds = predict_mlp(toy_mlp, train.features) > 0.5
        assert (preds == train.labels.astype(bool)).mean() >= 0.8

    def test_same_seed_bitwise_identical(self, toy_balanced):
        train, val, _ = toy_balanced
        cfg = TrainConfig.toy()
        a, = train_mlp(train, val, cfg, [SeededRng(8)])
        b, = train_mlp(train, val, cfg, [SeededRng(8)])
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_empty_validation_rejected(self, toy_balanced):
        train, _, _ = toy_balanced
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                        ("x1", "x2"))
        with pytest.raises(DataError):
            train_mlp(train, empty, TrainConfig.toy(), [SeededRng(0)])

    def test_no_streams_rejected(self, toy_balanced):
        train, val, _ = toy_balanced
        with pytest.raises(ParameterError, match="at least one network"):
            train_mlp(train, val, TrainConfig.toy(), [])

    def test_nan_features_raise_training_error(self, toy_balanced):
        train, val, _ = toy_balanced
        X = train.features.copy()
        X[0, 0] = np.nan
        with pytest.raises(TrainingError, match="epoch"):
            train_mlp(train.with_features(X), val, TrainConfig.toy(),
                      [SeededRng(0)])

    def test_best_snapshot_no_worse_than_final_epoch(self):
        # Same seed, same epochs; the only difference is whether the best
        # validation snapshot is restored at the end.
        rng = SeededRng(12)

        def overlapping(stream):
            # Toy clusters moved from (2, 2) and (-1, -1) to (0.5, 0.5) and (0, 0).
            d = generate_toy(ToyConfig(mode="balanced", n_train=60), stream)
            return d.with_features(
                d.features + np.where(d.labels[:, None] == 1, -1.5, 1.0))
        train = overlapping(rng.split("train"))
        val = overlapping(rng.split("val"))
        base = dict(hidden=(16,), batch_size=8, max_epochs=15, lr=1e-2)
        snap, = train_mlp(train, val, TrainConfig(patience=100, **base),
                          [SeededRng(13)])
        final, = train_mlp(train, val, TrainConfig(patience=None, **base),
                           [SeededRng(13)])
        def val_loss(m):
            return weighted_bce_loss(predict_mlp(m, val.features), val.labels, 1.0)
        assert val_loss(snap) <= val_loss(final) + 1e-12

    def test_patience_none_runs_all_epochs(self, toy_balanced):
        # With no early stopping the result must not depend on val content.
        train, val, _ = toy_balanced
        other_val = generate_toy(ToyConfig(mode="balanced"), SeededRng(99))
        cfg = TrainConfig.toy()
        assert cfg.patience is None
        a, = train_mlp(train, val, cfg, [SeededRng(14)])
        b, = train_mlp(train, other_val, cfg, [SeededRng(14)])
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestMcDropout:
    def test_rate_zero_equals_deterministic(self):
        m = init_mlp(2, TrainConfig(hidden=(5,), dropout_rate=0.0), SeededRng(0))
        X = SeededRng(1).normal((20, 2))
        np.testing.assert_array_equal(
            mc_dropout_predict(m, X, T=7, rng=SeededRng(2)),
            predict_mlp(m, X))

    def test_deterministic_under_seed(self, toy_mlp):
        X = SeededRng(3).normal((10, 2))
        a = mc_dropout_predict(toy_mlp, X, T=10, rng=SeededRng(4))
        b = mc_dropout_predict(toy_mlp, X, T=10, rng=SeededRng(4))
        np.testing.assert_array_equal(a, b)

    def test_passes_are_stochastic(self, toy_mlp):
        X = SeededRng(5).normal((10, 2))
        a = mc_dropout_predict(toy_mlp, X, T=1, rng=SeededRng(6))
        b = mc_dropout_predict(toy_mlp, X, T=1, rng=SeededRng(7))
        assert not np.array_equal(a, b)

    def test_output_in_unit_interval(self, toy_mlp):
        X = SeededRng(8).normal((50, 2), std=5.0)
        p = mc_dropout_predict(toy_mlp, X, T=25, rng=SeededRng(9))
        assert ((0.0 < p) & (p < 1.0)).all()

    @pytest.mark.parametrize("T", [1, 100])
    @pytest.mark.parametrize("n", [1, 13, 2000])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("hidden", [(5,), (100, 100), (7, 3, 4)],
                             ids=["5", "100-100", "7-3-4"])
    def test_matches_per_pass_reference_cold_and_warm(self, hidden, rate, n, T):
        m = init_mlp(4, TrainConfig(hidden=hidden, dropout_rate=rate), SeededRng(10))
        cache = {}
        # A warm cache is reused on other inputs of the same row count, as
        # the corrupted copies of a test set reuse the clean copy's masks.
        for X in (SeededRng(11).normal((n, 4)), SeededRng(12).normal((n, 4), std=30.0)):
            np.testing.assert_array_equal(
                mc_dropout_predict(m, X, SeededRng(13), T, cache),
                mc_dropout_reference(m, X, SeededRng(13), T))


class TestMcDropoutCache:
    def test_same_row_count_draws_once(self, toy_mlp, keep_draws):
        cache = {}
        mc_dropout_predict(toy_mlp, np.zeros((6, 2)), SeededRng(0), 4, cache)
        assert keep_draws == [(6, 1)] * 4
        mc_dropout_predict(toy_mlp, np.ones((6, 2)), SeededRng(0), 4, cache)
        assert len(keep_draws) == 4
        assert list(cache) == [6]

    def test_new_row_count_adds_one_entry(self, toy_mlp, keep_draws):
        cache = {}
        mc_dropout_predict(toy_mlp, np.zeros((6, 2)), SeededRng(0), 4, cache)
        mc_dropout_predict(toy_mlp, np.zeros((9, 2)), SeededRng(0), 4, cache)
        assert sorted(cache) == [6, 9]
        assert keep_draws == [(6, 1)] * 4 + [(9, 1)] * 4

    def test_more_passes_draw_only_the_new_ones(self, toy_mlp, keep_draws):
        cache = {}
        X = SeededRng(1).normal((6, 2))
        mc_dropout_predict(toy_mlp, X, SeededRng(0), 2, cache)
        p = mc_dropout_predict(toy_mlp, X, SeededRng(0), 5, cache)
        assert len(keep_draws) == 5
        np.testing.assert_array_equal(p, mc_dropout_reference(toy_mlp, X, SeededRng(0), 5))

    def test_wrong_width_raises_before_drawing(self, toy_mlp, keep_draws):
        cache = {}
        with pytest.raises(ShapeError):
            mc_dropout_predict(toy_mlp, np.zeros((6, 3)), SeededRng(0), 4, cache)
        assert keep_draws == [] and cache == {}

    def test_no_passes_rejected(self, toy_mlp, keep_draws):
        cache = {}
        with pytest.raises(ParameterError):
            mc_dropout_predict(toy_mlp, np.zeros((6, 2)), SeededRng(0), 0, cache)
        assert keep_draws == [] and cache == {}

    @pytest.mark.parametrize("rate", [1.0, -0.1])
    def test_bad_dropout_rate_rejected(self, toy_mlp, rate):
        cache = {}
        model = dataclasses.replace(toy_mlp, dropout_rate=rate)
        with pytest.raises(ParameterError):
            mc_dropout_predict(model, np.zeros((6, 2)), SeededRng(0), 4, cache)
        assert cache == {}
