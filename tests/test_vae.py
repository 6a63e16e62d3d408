import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import tabuq.vae
from tabuq import SeededRng, VaeConfig, corrupt_feature, train_vae, vae_novelty_score
from tabuq.errors import ParameterError, ShapeError, TrainingError
from tabuq.numeric import flatten, unflatten
from tabuq.vae import (LOG_2PI, LOGVAR_MAX, LOGVAR_MIN, _encode, decoder_nll, init_vae,
                       vae_loss_and_grads)

from conftest import check_step_buffers, make_dataset
from oracles import (decode_reference, encode_reference, finite_difference_gradient,
                     kl_to_standard_normal, vae_loss, vae_loss_and_grads_reference,
                     vae_novelty_score_reference)


class TestInitAndShapes:
    def test_parameter_shapes(self):
        cfg = VaeConfig(latent_dim=3)
        m = init_vae(5, cfg, SeededRng(0))
        assert m.enc_w_mu.shape == (5, 3)
        assert m.enc_w_lv.shape == (5, 3)
        assert m.dec_w_mu.shape == (3, 5)
        assert m.dec_w_lv.shape == (3, 5)
        assert m.enc_b_mu.shape == (3,)
        assert m.dec_b_lv.shape == (5,)
        assert (m.n_features, m.latent_dim) == (5, 3)

    def test_toy_config(self):
        assert VaeConfig.toy().latent_dim == 2

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ParameterError, match=r"^lr must be positive and finite, got "):
            VaeConfig(lr=lr)

    def test_deterministic(self):
        a = init_vae(4, VaeConfig(latent_dim=2), SeededRng(1))
        b = init_vae(4, VaeConfig(latent_dim=2), SeededRng(1))
        np.testing.assert_array_equal(a.enc_w_mu, b.enc_w_mu)
        np.testing.assert_array_equal(a.dec_b_lv, b.dec_b_lv)

    def test_flatten_roundtrip(self):
        m = init_vae(6, VaeConfig(latent_dim=3), SeededRng(2))
        m2 = m.with_flat(flatten(m.params()))
        for a, b in zip(m.params(), m2.params(), strict=True):
            np.testing.assert_array_equal(a, b)


class TestDensityTerms:
    def test_decoder_nll_standard_normal_at_zero(self):
        # r=0 and logvar=0 leave only the (1/2) ln 2 pi constant per feature.
        X = np.zeros((1, 4))
        nll = decoder_nll(X, np.zeros((1, 4)), np.zeros((1, 4)))
        assert abs(nll[0] - 2.0 * LOG_2PI) < 1e-12

    def test_decoder_nll_quadratic_in_residual(self):
        X = np.array([[3.0]])
        nll = decoder_nll(X, np.zeros((1, 1)), np.zeros((1, 1)))
        assert abs(nll[0] - (0.5 * 9.0 + 0.5 * LOG_2PI)) < 1e-12

    def test_kl_zero_at_standard_normal(self):
        kl = kl_to_standard_normal(np.zeros((3, 2)), np.zeros((3, 2)))
        np.testing.assert_allclose(kl, 0.0, atol=1e-15)

    def test_kl_hand_value(self):
        # KL(N(1,1) || N(0,1)) = 1/2 per coordinate.
        kl = kl_to_standard_normal(np.ones((1, 1)), np.zeros((1, 1)))
        assert abs(kl[0] - 0.5) < 1e-15

    def test_kl_nonnegative(self):
        rng = SeededRng(3)
        kl = kl_to_standard_normal(rng.normal((50, 4)), rng.normal((50, 4)))
        assert (kl >= 0).all()

    def test_logvar_clamped(self):
        m = init_vae(2, VaeConfig(latent_dim=2), SeededRng(4))
        X = SeededRng(5).normal((3, 2), std=1e6)
        _, e_lv = _encode(m, X)
        assert e_lv.min() >= LOGVAR_MIN and e_lv.max() <= LOGVAR_MAX


class TestGradients:
    def test_elbo_gradient_matches_finite_differences(self):
        rng = SeededRng(6)
        cfg = VaeConfig(latent_dim=3)
        model = init_vae(4, cfg, rng.split("init"))
        X = rng.split("x").normal((7, 4))
        eps = rng.split("eps").normal((7, 3))

        _, grads = vae_loss_and_grads(model, X, eps)
        flat_grads = flatten(grads)

        def f(flat):
            return vae_loss(model.with_flat(flat), X, eps)

        fd = finite_difference_gradient(f, flatten(model.params()))
        denom = np.maximum(1e-8, np.abs(flat_grads) + np.abs(fd))
        assert (np.abs(flat_grads - fd) / denom).max() < 1e-4


def _assert_same_step(a, b):
    assert a[0] == b[0]
    for ga, gb in zip(a[1], b[1], strict=True):
        np.testing.assert_array_equal(ga, gb)


class TestStepBuffers:
    @pytest.mark.parametrize("latent", [2, 5, 500])
    @pytest.mark.parametrize("rows", [(256, 7), (64, 37)], ids=["256-7", "64-37"])
    def test_buffered_step_equals_allocating_and_reference_steps(self, latent, rows,
                                                                 handed_buffers):
        rng = SeededRng(30)
        model = init_vae(4, VaeConfig(latent_dim=latent), rng.split("init"))
        buf = {}
        # The buffered step also writes its gradients into views of one flat
        # buffer, as train_vae's steps do.
        grad = np.full(sum(a.size for a in model.params()), np.nan)
        steps = []
        clamped = {"enc": np.zeros(3, bool), "dec": np.zeros(3, bool)}
        # Full, short, full: a reused buffer must not leak the last step's values.
        for step, n in enumerate(rows + rows[:1]):
            step_rng = rng.split(f"step{step}")
            # Row scales from 0.1 to 3000 drive both log-variances past their clamps.
            X = step_rng.split("x").normal((n, 4)) * np.geomspace(0.1, 3000.0, n)[:, None]
            eps = step_rng.split("eps").normal((n, latent))
            handed_buffers.clear()
            buffered = vae_loss_and_grads(model, X, eps, buf, unflatten(grad, model.params()))
            steps.append(list(handed_buffers))
            assert all(np.shares_memory(g, grad) for g in buffered[1])
            _assert_same_step(buffered, vae_loss_and_grads(model, X, eps))
            _assert_same_step(buffered, vae_loss_and_grads_reference(model, X, eps))
            assert buffered[0] == vae_loss(model, X, eps)
            e_mu, e_lv_raw = encode_reference(model, X)
            e_lv = np.clip(e_lv_raw, LOGVAR_MIN, LOGVAR_MAX)
            _, d_lv_raw = decode_reference(model, e_mu + np.exp(0.5 * e_lv) * eps)
            for side, raw in (("enc", e_lv_raw), ("dec", d_lv_raw)):
                clamped[side] |= [(raw < LOGVAR_MIN).any(), (raw > LOGVAR_MAX).any(),
                                  ((LOGVAR_MIN < raw) & (raw < LOGVAR_MAX)).any()]
            if step == 1:
                two_shapes = dict(buf)
        # Each log-variance was clamped below, clamped above and left free somewhere.
        assert clamped["enc"].all() and clamped["dec"].all()
        assert buf.keys() == two_shapes.keys()
        assert all(buf[key] is two_shapes[key] for key in buf)
        check_step_buffers(buf, steps)
        assert {a.shape for step in steps for _, a in step} == {(n, latent) for n in rows}

    def test_log_variances_exactly_on_the_bounds_get_no_gradient(self):
        # A raw log-variance on a bound is the one place where a gate read on
        # the clamped value could differ from one read on the raw value.
        rng = SeededRng(31)
        lo, hi = LOGVAR_MIN, LOGVAR_MAX
        model = dataclasses.replace(
            init_vae(4, VaeConfig(latent_dim=3), rng.split("init")),
            enc_w_lv=np.zeros((4, 3)), enc_b_lv=np.array([lo, hi, lo]),
            dec_w_lv=np.zeros((3, 4)), dec_b_lv=np.array([hi, lo, hi, lo]))
        X = rng.split("x").normal((9, 4))
        eps = rng.split("eps").normal((9, 3))
        buffered = vae_loss_and_grads(model, X, eps, {})
        _assert_same_step(buffered, vae_loss_and_grads(model, X, eps))
        _assert_same_step(buffered, vae_loss_and_grads_reference(model, X, eps))
        for grad in buffered[1][2:4] + buffered[1][6:8]:
            assert (grad == 0.0).all()

    def test_one_step_call_per_batch(self, toy_balanced, monkeypatch):
        # perfbench's tracer counts steps by wrapping this module attribute.
        calls = []
        real = tabuq.vae.vae_loss_and_grads

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(tabuq.vae, "vae_loss_and_grads", counted)
        train, _, _ = toy_balanced
        cfg = VaeConfig(latent_dim=2, batch_size=64, epochs=3)
        train_vae(train, cfg, SeededRng(0))
        assert len(calls) == cfg.epochs * math.ceil(train.n / cfg.batch_size)
        assert calls[-1] == (train.n % cfg.batch_size, 2)


class TestTrainVae:
    def test_loss_decreases_over_early_epochs(self, toy_balanced):
        train, _, _ = toy_balanced
        rng = SeededRng(7)
        cfg_1 = VaeConfig(latent_dim=2, epochs=1, batch_size=32)
        cfg_5 = VaeConfig(latent_dim=2, epochs=5, batch_size=32)
        eps = SeededRng(8).normal((train.n, 2))
        early = vae_loss(train_vae(train, cfg_1, SeededRng(9)),
                         train.features, eps)
        later = vae_loss(train_vae(train, cfg_5, SeededRng(9)),
                         train.features, eps)
        assert later < early

    def test_same_seed_identical(self, toy_balanced):
        train, _, _ = toy_balanced
        cfg = VaeConfig.toy()
        a = train_vae(train, cfg, SeededRng(10))
        b = train_vae(train, cfg, SeededRng(10))
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_nan_input_raises_training_error(self, toy_balanced):
        train, _, _ = toy_balanced
        X = train.features.copy()
        X[0, 0] = np.nan
        with pytest.raises(TrainingError):
            train_vae(train.with_features(X), VaeConfig.toy(), SeededRng(11))


class TestNoveltyScore:
    def test_outliers_score_above_every_inlier(self, toy_vae, toy_balanced):
        train, _, _ = toy_balanced
        inlier_scores = vae_novelty_score(toy_vae, train.features, S=10,
                                          rng=SeededRng(12))
        far = np.full((100, 2), 40.0)
        outlier_scores = vae_novelty_score(toy_vae, far, S=10,
                                           rng=SeededRng(12))
        assert outlier_scores.min() > inlier_scores.max()

    def test_duplicate_rows_equal_scores(self, toy_vae):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        s = vae_novelty_score(toy_vae, X, S=5, rng=SeededRng(13))
        assert s[0] == s[1]
        # At BLAS tile sizes too: a scorer in 256-row blocks would score the
        # 257th row in a 1-row block, which rounds apart from the first row's.
        for rows in (257, 2000):
            model, X = _scoring_case(500, rows, clamped=False)
            X[-1] = X[0]
            s = vae_novelty_score(model, X, SeededRng(13), 10)
            assert s[0] == s[-1], rows

    def test_deterministic_under_seed(self, toy_vae, toy_balanced):
        train, _, _ = toy_balanced
        a = vae_novelty_score(toy_vae, train.features, S=7, rng=SeededRng(14))
        b = vae_novelty_score(toy_vae, train.features, S=7, rng=SeededRng(14))
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self, toy_vae):
        with pytest.raises(ShapeError):
            vae_novelty_score(toy_vae, np.zeros((2, 5)), S=2,
                              rng=SeededRng(15))

    def test_radius_ordering_on_unit_cluster(self):
        # Trained on N(0, I) in 3-D, radius-10 points must out-score radius-0.
        rng = SeededRng(16)
        X = rng.split("train").normal((400, 3))
        d = make_dataset(X, np.zeros(400, dtype=np.int64))
        vae = train_vae(d, VaeConfig(latent_dim=2, epochs=10, batch_size=64),
                        rng.split("fit"))
        at_zero = vae_novelty_score(vae, np.zeros((100, 3)), S=10,
                                    rng=rng.split("s0"))
        shell = rng.split("dir").normal((100, 3))
        shell = 10.0 * shell / np.linalg.norm(shell, axis=1, keepdims=True)
        at_ten = vae_novelty_score(vae, shell, S=10, rng=rng.split("s10"))
        assert at_ten.mean() > at_zero.mean()


def _scoring_case(latent: int, rows: int, clamped: bool):
    """A 10-feature VAE and rows to score; with clamped, the encoder's
    log-variance bias sits at +-15, past both ends of the clamp."""
    rng = SeededRng(17).split(f"{latent}.{rows}.{clamped}")
    model = init_vae(10, VaeConfig(latent_dim=latent), rng.split("init"))
    if clamped:
        model.enc_b_lv[:] = np.where(np.arange(latent) % 2, 15.0, -15.0)
    return model, rng.split("X").normal((rows, 10))


class TestNoveltyScoreBuffers:
    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("S", [1, 10])
    @pytest.mark.parametrize("rows", [1, 2000])
    @pytest.mark.parametrize("latent", [2, 5, 500])
    def test_matches_the_fresh_array_reference(self, latent, rows, S, clamped):
        # The reference decodes one sample at a time, the scorer all samples in
        # one product, so the two sum in another order and may differ by rounding.
        model, X = _scoring_case(latent, rows, clamped)
        raw = X @ model.enc_w_lv + model.enc_b_lv
        assert ((raw > LOGVAR_MAX) | (raw < LOGVAR_MIN)).any() == clamped
        np.testing.assert_allclose(
            vae_novelty_score(model, X, SeededRng(18), S),
            vae_novelty_score_reference(model, X, SeededRng(18), S), rtol=1e-14, atol=0)

    def test_a_repeated_row_scores_the_same_in_every_row_block(self):
        model, X = _scoring_case(500, 2001, clamped=False)
        X[2000] = X[0]
        scores = vae_novelty_score(model, X, SeededRng(20), 10)
        assert scores[0] == scores[2000]

    def test_corruption_by_factor_one_keeps_every_score(self):
        # The unit form of the exact 0.5 detection AUC at corruption factor 1.
        model, X = _scoring_case(500, 2000, clamped=False)
        d = make_dataset(X, np.zeros(len(X), dtype=np.int64))
        for j in (0, 9):
            np.testing.assert_array_equal(
                vae_novelty_score(model, corrupt_feature(d, j, 1.0).features, SeededRng(21), 10),
                vae_novelty_score(model, X, SeededRng(21), 10))

    def test_peak_memory_is_one_latent_array_and_the_product(self):
        n, latent, S = 2000, 500, 10
        model, X = _scoring_case(latent, n, clamped=False)
        d = X.shape[1]
        tracemalloc.start()
        try:
            vae_novelty_score(model, X, SeededRng(19), S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The slack, ten (rows, features) arrays, covers the stacked decoder maps,
        # the per-row means and the NLL's temporaries; the latent means as a
        # second (rows, latent) array would take 8 MB more.
        assert peak <= n * latent * 8 + n * S * 2 * d * 8 + 10 * n * d * 8
