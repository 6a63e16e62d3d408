import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tabuq.mlp
import tabuq.numeric
from tabuq import (Dataset, SeededRng, ToyConfig, TrainConfig, generate_toy,
                   mc_dropout_predict, mlp_loss, mlp_loss_and_grads, positive_weight,
                   predict_mlp, train_mlp, weighted_bce_loss)
from tabuq.errors import DataError, ParameterError, ShapeError, TrainingError
from tabuq.mlp import MlpModel, _forward, _layer_masks, _make_masks, _mask_layout, init_mlp
from tabuq.numeric import flatten, unflatten

from conftest import check_step_buffers, make_dataset
from oracles import (dropout_masks, finite_difference_gradient, mc_dropout_reference,
                     mlp_loss_and_grads_reference, train_mlp_reference)


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
        y = (rng.split("y").uniform(0.0, 1.0, 9) < 0.4).astype(np.int64)
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

    @pytest.mark.parametrize("weighting", [False, True])
    @pytest.mark.parametrize("M", [None, 3])
    @pytest.mark.parametrize("rate", [0.5, 0.3])
    def test_gradients_equal_the_reference_bytewise(self, rate, M, weighting):
        # The reference multiplies each delta by its keep mask before the relu
        # gate, which the step leaves to the gate alone; at rate 0.3 the scale
        # 1/0.7 rounds. Bytes, not values, so that a 0.0 for a -0.0 fails too.
        # Unit 0 of the first hidden layer has a bias that shuts its gate on
        # every row.
        rng = SeededRng(30)
        model = _stacked_model((6, 4), M, rng.split("init"), rate)
        biases = [b.copy() for b in model.biases]
        biases[0][..., 0] = -1e3
        model = MlpModel(model.weights, tuple(biases), rate)
        lead = () if M is None else (M,)
        X = rng.split("x").normal(lead + (37, 4), std=2.0)
        y = (rng.split("y").uniform(0.0, 1.0, lead + (37,)) < 0.3).astype(np.int64)
        bits = _make_masks(model, 37, [rng.split(f"m{m}") for m in range(M or 1)])
        masks = _layer_masks(_mask_layout(model), bits[0] if M is None else bits)
        y_hat, inputs = _forward(model, X, masks)
        assert (inputs[1][..., 0] == 0).all()

        total, grads_w, grads_b = mlp_loss_and_grads(model, X, y, weighting, masks)
        loss, ref_w, ref_b = mlp_loss_and_grads_reference(model, X, y, weighting, masks)
        for got, want in zip((*grads_w, *grads_b), (*ref_w, *ref_b), strict=True):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        assert (grads_w[0][..., 0] == 0).all()
        assert total.tobytes() == y_hat.sum(axis=(-2, -1)).tobytes()
        assert np.shape(total) == np.shape(loss) == lead


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
            for a, b in zip(_layer_masks(_mask_layout(model), bits), expected, strict=True):
                np.testing.assert_array_equal(a[m], b)


def _stacked_model(hidden, M, rng, rate=0.5):
    """M=None: one network with 2-D weights; else a stack of M networks."""
    cfg = TrainConfig(hidden=hidden, dropout_rate=rate)
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
    def test_buffered_step_equals_allocating_step(self, hidden, M, masked, weighting,
                                                  handed_buffers):
        rng = SeededRng(20)
        model = _stacked_model(hidden, M, rng.split("init"))
        lead = () if M is None else (M,)
        buf = {}
        # The buffered step also writes its gradients into views of one flat
        # buffer per network, as train_mlp's steps do.
        like = model.params() if M is None else [a[0] for a in model.params()]
        grad = np.full(lead + (sum(a.size for a in like),), np.nan)
        steps = []
        # Full, short, full: a reused buffer must not leak the last step's values.
        for step, n in enumerate((256, 37, 256)):
            step_rng = rng.split(f"step{step}")
            X = step_rng.split("x").normal(lead + (n, 4), std=2.0)
            y = (step_rng.split("y").uniform(0.0, 1.0, lead + (n,)) < 0.3).astype(np.int64)
            masks = None
            if masked:
                bits = _make_masks(model, n, [step_rng.split(f"m{m}") for m in range(M or 1)])
                masks = _layer_masks(_mask_layout(model), bits[0] if M is None else bits)
            handed_buffers.clear()
            buffered = mlp_loss_and_grads(model, X, y, weighting, masks, buf, unflatten(grad, like))
            steps.append(list(handed_buffers))
            _assert_same_step(buffered, mlp_loss_and_grads(model, X, y, weighting, masks))
            assert all(np.shares_memory(g, grad) for g in (*buffered[1], *buffered[2]))
            if step == 1:
                two_shapes = dict(buf)
        assert buf.keys() == two_shapes.keys()
        assert all(buf[key] is two_shapes[key] for key in buf)
        check_step_buffers(buf, steps)
        assert {a.shape for step in steps for _, a in step} == {
            lead + (n, h) for n in (256, 37) for h in hidden}

    def test_buffered_validation_loss_equals_allocating_loss(self):
        model = init_mlp(4, TrainConfig(hidden=(100, 100)), SeededRng(21))
        X = SeededRng(22).normal((300, 4))
        y = (X[:, 0] > 0).astype(np.int64)
        buf = {"h0": np.full(256 * 100, np.nan)}  # a smaller step's buffer, grown here
        for weighting in (False, True):
            assert mlp_loss(model, X, y, weighting, buf=buf) == mlp_loss(model, X, y, weighting)
        assert buf["h0"].size == buf["h1"].size == 300 * 100

    def test_validation_runs_in_the_step_buffers(self):
        # Early stopping's validation passes, on more rows than a stacked batch,
        # grow the fit's step buffers once instead of allocating two fresh
        # (validation rows, width) activations per member and epoch. So the fit's
        # peak exceeds the same fit's without validation by the buffers' growth,
        # each member's snapshot and its replacement, and a few (validation rows,)
        # vectors; fresh activations would add the stacked batch's two arrays.
        M, batch, n_val, width = 3, 256, 2000, 100

        def dataset(rng, n):
            X = rng.normal((n, 4))
            return make_dataset(X, (X[:, 0] + X[:, 1] > 0).astype(np.int64))

        train, val = dataset(SeededRng(23), 2 * batch), dataset(SeededRng(24), n_val)
        peaks = {}
        for patience in (None, 5):
            cfg = TrainConfig(hidden=(width, width), batch_size=batch, max_epochs=3,
                              patience=patience)
            tracemalloc.start()
            try:
                networks = train_mlp(train, val, cfg, [SeededRng(25 + m) for m in range(M)])
                _, peaks[patience] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        params = sum(a.size for a in networks[0].params())
        growth = (n_val - M * batch) * width * 2 * 8
        assert peaks[5] - peaks[None] <= growth + 2 * M * params * 8 + 8 * n_val * 8

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


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [-0.01, 0.0, math.nan, math.inf])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ParameterError, match=r"^lr must be positive and finite, got "):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, math.nan])
    def test_bad_dropout_rate_rejected(self, rate):
        with pytest.raises(ParameterError, match=r"^dropout_rate must be in \[0, 1\), got "):
            TrainConfig(dropout_rate=rate)

    def test_edges_accepted(self):
        cfg = TrainConfig(lr=1e-300, dropout_rate=0.0)
        assert (cfg.lr, cfg.dropout_rate) == (1e-300, 0.0)


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

    def test_per_stream_sets_of_other_shapes_rejected(self, toy_balanced):
        train, val, _ = toy_balanced
        rngs = [SeededRng(0), SeededRng(1)]
        short = train.take(range(train.n - 1))
        wide = make_dataset(np.zeros((train.n, 3)), train.labels)
        with pytest.raises(ShapeError, match=r"training sets must share one shape, "
                                             r"got \(200, 2\) and \(199, 2\)"):
            train_mlp([train, short], val, TrainConfig.toy(), rngs)
        with pytest.raises(ShapeError, match=r"got \(200, 2\) and \(200, 3\)"):
            train_mlp([train, wide], val, TrainConfig.toy(), rngs)
        with pytest.raises(ShapeError, match=r"validation sets must share one shape, "
                                             r"got \(200, 2\) and \(199, 2\)"):
            train_mlp(train, [val, val.take(range(val.n - 1))], TrainConfig.toy(), rngs)
        counts = r"^need k training and k validation sets, k dividing the {} streams, got {}$"
        with pytest.raises(ParameterError, match=counts.format(2, "2 and 1")):
            train_mlp([train, train], val, TrainConfig.toy(), rngs)
        with pytest.raises(ParameterError, match=counts.format(3, "2 and 2")):
            train_mlp([train, train], [val, val], TrainConfig.toy(), [*rngs, SeededRng(2)])

    def test_per_stream_sets_give_each_network_the_bits_of_its_own_fit(self):
        # Two seeds' toy sets, each network on its own: a stack over both, given
        # one set per stream or one per run of 3 streams, has the bits of one
        # call per set, so no rows, streams or stops leak.
        cfg = dataclasses.replace(TrainConfig.toy(), lr=1e-2, patience=1)
        sets = [(generate_toy(ToyConfig(), SeededRng(s).split("train")),
                 generate_toy(ToyConfig(), SeededRng(s).split("val"))) for s in (0, 1)]
        rngs = [[SeededRng(10 + 3 * s + i) for i in range(3)] for s in (0, 1)]
        alone = [net for (train, val), r in zip(sets, rngs)
                 for net in train_mlp(train, val, cfg, r, weighting=True)]
        for copies in (3, 1):
            together = train_mlp([train for train, _ in sets for _ in range(copies)],
                                 [val for _, val in sets for _ in range(copies)], cfg,
                                 rngs[0] + rngs[1], weighting=True)
            for a, b in zip(alone, together, strict=True):
                for pa, pb in zip(a.params(), b.params(), strict=True):
                    np.testing.assert_array_equal(pa, pb)

    def test_nan_features_raise_training_error(self, toy_balanced):
        train, val, _ = toy_balanced
        X = train.features.copy()
        X[0, 0] = np.nan
        with pytest.raises(TrainingError, match="epoch"):
            train_mlp(train.with_features(X), val, TrainConfig.toy(),
                      [SeededRng(0)])

    @pytest.mark.parametrize("case", ["nan-feature", "lr-1e300", "one-of-three"])
    def test_non_finite_step_raises_the_references_error(self, toy_balanced, case):
        # The step checks its output sums where the reference checks its
        # weighted BCE. At lr 3e153 the toy network of stream 7 overflows at
        # epoch 2, and those of streams 5 and 6 train on.
        train, val, _ = toy_balanced
        cfg, seeds = TrainConfig.toy(), [0]
        if case == "nan-feature":
            X = train.features.copy()
            X[5, 1] = np.nan
            train = train.with_features(X)
        elif case == "lr-1e300":
            cfg = dataclasses.replace(cfg, lr=1e300)
        else:
            cfg, seeds = dataclasses.replace(cfg, lr=3e153), [5, 6, 7]
        errors = []
        with np.errstate(all="ignore"):
            for seed in seeds:
                try:
                    train_mlp_reference(train, val, cfg, SeededRng(seed), weighting=False)
                except TrainingError as e:
                    errors.append(str(e))
            with pytest.raises(TrainingError) as stacked:
                train_mlp(train, val, cfg, [SeededRng(seed) for seed in seeds])
        assert len(errors) == 1
        assert str(stacked.value) == errors[0]
        if case == "one-of-three":
            assert errors[0] == "non-finite training loss at epoch 2"

    def test_nan_validation_feature_with_patience_raises_training_error(self, toy_balanced):
        train, val, _ = toy_balanced
        X = val.features.copy()
        X[0, 1] = np.nan
        with pytest.raises(TrainingError, match=r"^non-finite validation loss at epoch 0$"):
            train_mlp(train, val.with_features(X), TrainConfig(hidden=(5,), patience=2),
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

    def test_best_snapshot_is_a_copy_of_its_epoch(self, toy_unbalanced, monkeypatch):
        # The trainer steps its parameters in place, so a snapshot kept as a
        # view would read the last epoch's values. At lr 0.03 the network's
        # best validation epoch comes before the last of the epochs it runs.
        train, val, _ = toy_unbalanced
        cfg = TrainConfig(hidden=(5,), batch_size=8, lr=3e-2, max_epochs=30, patience=2)
        val_losses = []
        real = tabuq.mlp.mlp_loss

        def recorded(*args, **kwargs):
            val_losses.append(real(*args, **kwargs))
            return val_losses[-1]

        with monkeypatch.context() as patch:
            patch.setattr(tabuq.mlp, "mlp_loss", recorded)
            network, = train_mlp(train, val, cfg, [SeededRng(0)], weighting=True)
        assert int(np.argmin(val_losses)) < len(val_losses) - 1 < cfg.max_epochs - 1
        expected = train_mlp_reference(train, val, cfg, SeededRng(0), weighting=True)
        assert flatten(network.params()).tobytes() == flatten(expected.params()).tobytes()
        last, = train_mlp(train, val, dataclasses.replace(cfg, patience=None,
                                                          max_epochs=len(val_losses)),
                          [SeededRng(0)], weighting=True)
        assert flatten(network.params()).tobytes() != flatten(last.params()).tobytes()

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

    @pytest.mark.parametrize("T, gate", [(1, math.inf), (2, math.inf), (3, math.inf),
                                         (100, math.inf), (1, 0), (2, 0), (3, 0), (100, 0)],
                             ids=["1", "2", "3", "100", "1-split", "2-split", "3-split",
                                  "100-split"])
    @pytest.mark.parametrize("n", [1, 2, 13, 2000])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("hidden", [(5,), (100, 100), (7, 3, 4)],
                             ids=["5", "100-100", "7-3-4"])
    def test_matches_per_pass_reference_cold_and_warm(self, monkeypatch, hidden, rate, n, T,
                                                      gate):
        # A first call and a repeat call on the same rows and stream path
        # give the reference's bits, as the corrupted copies of a test set
        # meet the clean copy's masks, with numeric.WORKER_MIN forced shut (inf: the
        # calling thread alone) and forced open (0: passes split over two threads).
        # T = 2 starts no worker, and at T = 3 the worker's share is the one
        # pass the calling thread runs for it. Two rows is the smallest call
        # that folds its passes; one row keeps the stack, which numpy sums pairwise.
        monkeypatch.setattr(tabuq.numeric, "WORKER_MIN", gate)
        m = init_mlp(4, TrainConfig(hidden=hidden, dropout_rate=rate), SeededRng(10))
        for X in (SeededRng(11).normal((n, 4)), SeededRng(12).normal((n, 4), std=30.0)):
            expected = mc_dropout_reference(m, X, SeededRng(13), T)
            for _ in range(2):
                np.testing.assert_array_equal(mc_dropout_predict(m, X, SeededRng(13), T), expected)

    @pytest.mark.parametrize("n, hidden, gate, kept, row_arrays",
                             [(2500, (5,), math.inf, 0, 8), (2000, (100, 100), 0, 49, 6)],
                             ids=["toy-grid", "split"])
    def test_peak_memory_is_the_row_buffers_and_the_workers_passes(self, monkeypatch, n, hidden,
                                                                   gate, kept, row_arrays):
        # 100 passes. The toy grid, 2,500 rows x [5], runs on the calling
        # thread, which folds each pass into one (rows,) sum and keeps no pass
        # array; its slack, eight (rows, widest) arrays, covers layer 0's scaled
        # output and its masked copy, the keep masks, the tail's step buffers
        # and the output layer's temporaries. Split (the gate open), 2,000 rows
        # x [100, 100] keeps only the worker's passes 51..99 and six row arrays:
        # layer 0's output, the two threads' step buffers and the keep masks.
        monkeypatch.setattr(tabuq.numeric, "WORKER_MIN", gate)
        m = init_mlp(2, TrainConfig(hidden=hidden), SeededRng(14))
        X = SeededRng(15).normal((n, 2))
        tracemalloc.start()
        try:
            mc_dropout_predict(m, X, SeededRng(16), 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= kept * n * 8 + row_arrays * n * max(hidden) * 8


SPLIT_SCRIPT = """
import hashlib, math, threading
import tabuq.mlp as mlp
import tabuq.numeric as numeric
from tabuq import SeededRng, TrainConfig

m = mlp.init_mlp(4, TrainConfig(hidden=(100, 100)), SeededRng(20))
X = SeededRng(21).normal((2000, 4))
assert 2000 * 100 >= numeric.WORKER_MIN
real = mlp._forward
names = set()
mlp._forward = lambda *a: names.add(threading.current_thread().name) or real(*a)
for gate in (numeric.WORKER_MIN, math.inf):
    numeric.WORKER_MIN = gate
    names.clear()
    h = hashlib.sha256(mlp.mc_dropout_predict(m, X, SeededRng(22), 20).tobytes()).hexdigest()
    print(",".join(sorted(names)), h)
"""


class PassError(Exception):
    pass


class TestMcDropoutWorker:
    """Above numeric.WORKER_MIN the passes run on the calling thread and one worker."""

    @staticmethod
    def above_the_gate():
        m = init_mlp(4, TrainConfig(hidden=(100, 100)), SeededRng(20))
        return m, SeededRng(21).normal((-(-tabuq.numeric.WORKER_MIN // 100), 4))

    @pytest.mark.parametrize("T", [1, 2])
    def test_two_passes_or_fewer_start_no_thread(self, monkeypatch, T):
        m, X = self.above_the_gate()
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        np.testing.assert_array_equal(mc_dropout_predict(m, X, SeededRng(24), T),
                                      mc_dropout_reference(m, X, SeededRng(24), T))
        assert started == []

    def test_the_toy_grid_starts_no_thread(self, monkeypatch):
        # 2,500 rows x [5], the surfaces experiment's grid, is below the gate.
        m = init_mlp(2, TrainConfig.toy(), SeededRng(25))
        X = SeededRng(26).normal((2500, 2))
        assert 2500 * 5 < tabuq.numeric.WORKER_MIN
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        mc_dropout_predict(m, X, SeededRng(27), 100)
        assert started == []

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        m, X = self.above_the_gate()
        real = tabuq.mlp._forward

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise PassError("pass failed off the main thread")
            return real(*args)

        monkeypatch.setattr(tabuq.mlp, "_forward", failing)
        threads = threading.active_count()
        with pytest.raises(PassError, match="^pass failed off the main thread$"):
            mc_dropout_predict(m, X, SeededRng(22), 10)
        assert threading.active_count() == threads

    def test_passes_on_both_threads_run_under_the_callers_error_state(self, monkeypatch):
        m, X = self.above_the_gate()
        seen = []
        real = tabuq.mlp._forward

        def recorded(*args):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
            return real(*args)

        monkeypatch.setattr(tabuq.mlp, "_forward", recorded)
        with np.errstate(all="raise"):
            expected = np.geterr()
            mc_dropout_predict(m, X, SeededRng(23), 10)
        assert expected != np.geterr()
        assert {main for main, _ in seen} == {True, False}
        assert all(err == expected for _, err in seen)

    def test_concurrent_calls_under_a_short_switch_interval_keep_their_bits(self, monkeypatch):
        # Three callers, each with its own worker, on two cores, switching as
        # often as the interpreter allows: every call still has its one-thread bits.
        m, X = self.above_the_gate()
        gate = tabuq.numeric.WORKER_MIN
        monkeypatch.setattr(tabuq.numeric, "WORKER_MIN", math.inf)
        expected = [mc_dropout_predict(m, X, SeededRng(s), 12) for s in range(3)]
        monkeypatch.setattr(tabuq.numeric, "WORKER_MIN", gate)
        got = [None] * 3

        def call(s):
            got[s] = mc_dropout_predict(m, X, SeededRng(s), 12)

        callers = [threading.Thread(target=call, args=(s,)) for s in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for a, b in zip(got, expected, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_same_bits_with_two_blas_threads(self):
        src = Path(tabuq.mlp.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "2",
               "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
        out = subprocess.run([sys.executable, "-c", SPLIT_SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        (split, threaded), (alone, one_thread) = (line.split() for line in out.splitlines())
        assert split == "MainThread,tabuq-mc-dropout" and alone == "MainThread"
        assert threaded == one_thread


class TestMcDropoutCache:
    """What a scoring call draws: nothing, when it refuses its arguments."""

    def test_wrong_width_raises_before_drawing(self, toy_mlp, keep_draws):
        with pytest.raises(ShapeError):
            mc_dropout_predict(toy_mlp, np.zeros((6, 3)), SeededRng(0), 4)
        assert keep_draws == []

    def test_no_passes_rejected(self, toy_mlp, keep_draws):
        with pytest.raises(ParameterError):
            mc_dropout_predict(toy_mlp, np.zeros((6, 2)), SeededRng(0), 0)
        assert keep_draws == []

    @pytest.mark.parametrize("rate", [1.0, -0.1])
    def test_bad_dropout_rate_rejected(self, toy_mlp, rate):
        model = dataclasses.replace(toy_mlp, dropout_rate=rate)
        with pytest.raises(ParameterError, match="dropout rate"):
            mc_dropout_predict(model, np.zeros((6, 2)), SeededRng(0), 4)
