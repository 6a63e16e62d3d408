import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tabuq import (SeededRng, auc_roc, binary_entropy, ece, minimize_gd, platt_apply,
                   platt_fit, sigmoid)
from tabuq.errors import ParameterError, UndefinedMetricError
from tabuq.metrics import PlattParams, _logit, midranks

from oracles import platt_objective_reference


def pair_counting_auc(scores, labels):
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly, ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return float(wins) / (len(pos) * len(neg))


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert abs(binary_entropy(0.5) - math.log(2)) < 1e-15

    def test_endpoints_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_point_nine(self):
        assert abs(binary_entropy(0.9) - 0.3250829733914482) < 1e-12

    def test_symmetry_grid(self):
        p = np.linspace(0, 1, 101)
        np.testing.assert_allclose(binary_entropy(p), binary_entropy(1 - p),
                                   atol=1e-12)

    def test_vectorized_shape(self):
        assert binary_entropy(np.full((3, 4), 0.3)).shape == (3, 4)

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_rejects_outside_unit_interval(self, bad):
        with pytest.raises(ParameterError):
            binary_entropy(bad)

    def test_rejects_nan(self):
        with pytest.raises(ParameterError, match="nan"):
            binary_entropy(float("nan"))
        with pytest.raises(ParameterError, match="nan"):
            binary_entropy(np.array([0.2, np.nan, 0.7]))


class TestMidranks:
    def test_no_ties(self):
        np.testing.assert_array_equal(midranks(np.array([0.3, 0.1, 0.2])),
                                      [3.0, 1.0, 2.0])

    def test_ties_get_average_rank(self):
        np.testing.assert_array_equal(
            midranks(np.array([0.2, 0.4, 0.4, 0.8])), [1.0, 2.5, 2.5, 4.0])

    def test_all_equal(self):
        np.testing.assert_array_equal(midranks(np.full(5, 1.0)),
                                      np.full(5, 3.0))


class TestAucRoc:
    def test_perfect_ranking(self):
        assert auc_roc([0.1, 0.9], [0, 1]) == 1.0

    def test_reversed_ranking(self):
        assert auc_roc([0.9, 0.1], [0, 1]) == 0.0

    def test_all_ties_half(self):
        assert auc_roc([0.4, 0.4, 0.4, 0.4], [0, 1, 0, 1]) == 0.5

    def test_worked_example(self):
        assert auc_roc([0.2, 0.4, 0.4, 0.8], [0, 1, 0, 1]) == 0.875

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc_roc([0.1, 0.2], [1, 1])

    def test_rejects_nan_score(self):
        with pytest.raises(ParameterError, match="NaN"):
            auc_roc([0.1, np.nan, 0.3, 0.4], [0, 1, 0, 1])

    def test_monotone_transform_invariance(self):
        rng = SeededRng(0)
        scores = rng.normal(50)
        labels = (rng.random(50) < 0.4).astype(np.int64)
        assert auc_roc(scores, labels) == auc_roc(np.exp(scores), labels)

    def test_label_swap_antisymmetry(self):
        rng = SeededRng(1)
        scores = rng.normal(60)
        labels = (rng.random(60) < 0.3).astype(np.int64)
        assert abs(auc_roc(scores, labels)
                   + auc_roc(scores, 1 - labels) - 1.0) < 1e-12

    @given(st.data())
    def test_equals_pair_counting_oracle(self, data):
        n = data.draw(st.integers(2, 60))
        # Coarse score grid to force plenty of ties.
        scores = data.draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.9, 1.0]),
            min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        assert auc_roc(scores, labels) == pair_counting_auc(scores, labels)


class TestEce:
    def test_shared_bin_compares_means(self):
        # 0.15 and 0.17 share bin 1: |0.16 - 0.5| counts twice, not
        # |0.15 - 1| + |0.17 - 0|.
        value = ece(np.array([0.05, 0.15, 0.25, 0.17]), np.array([0, 1, 0, 0]))
        assert abs(value - (0.05 + 2 * 0.34 + 0.25) / 4) < 1e-12

    def test_probability_one_lands_in_last_bin(self):
        # In one bin with 0.95 the gap is |0.975 - 0.5|; in a bin of its
        # own it would add |1 - 0| to |0.95 - 1|.
        assert abs(ece(np.array([0.95, 1.0]), np.array([1, 0])) - 0.475) < 1e-12

    @pytest.mark.parametrize("K", [1, 7, 10])
    def test_matches_per_bin_loop(self, K):
        rng = SeededRng(2)
        probs = np.concatenate([rng.random(500), [0.0, 1.0]])
        outcomes = (rng.random(502) < probs).astype(np.int64)
        total = 0.0
        for k in range(K):
            inside = (probs >= k / K) & ((probs < (k + 1) / K) | (k == K - 1))
            if inside.any():
                total += inside.sum() * abs(probs[inside].mean() - outcomes[inside].mean())
        assert abs(ece(probs, outcomes, K) - total / probs.size) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            ece(np.array([]), np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.1])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ParameterError):
            ece(np.array([0.2, bad]), np.array([0, 1]))

    def test_needs_a_bin(self):
        with pytest.raises(ParameterError, match="K=0"):
            ece(np.array([0.2]), np.array([0]), K=0)

    def test_perfect_binary_predictions(self):
        assert ece(np.array([0.0, 1.0, 1.0]), np.array([0, 1, 1])) == 0.0

    def test_worked_example(self):
        value = ece(np.array([0.05, 0.15, 0.25]), np.array([0, 1, 0]))
        expected = (abs(0.05 - 0) + abs(0.15 - 1) + abs(0.25 - 0)) / 3
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.38333) < 5e-6

    def test_constant_base_rate_prediction(self):
        outcomes = np.zeros(100, dtype=np.int64)
        outcomes[:35] = 1
        assert ece(np.full(100, 0.35), outcomes) < 1e-12

    def test_permutation_invariance(self):
        rng = SeededRng(3)
        probs = rng.random(200)
        outcomes = (rng.random(200) < probs).astype(np.int64)
        perm = SeededRng(4).permutation(200)
        assert abs(ece(probs, outcomes) - ece(probs[perm], outcomes[perm])) < 1e-15

    def test_within_unit_interval(self):
        rng = SeededRng(5)
        probs = rng.random(50)
        outcomes = (rng.random(50) < 0.5).astype(np.int64)
        assert 0.0 <= ece(probs, outcomes) <= 1.0


class TestPlatt:
    def _calibrated_sample(self, seed, n=10_000):
        rng = SeededRng(seed)
        probs = rng.split("p").random(n)
        outcomes = (rng.split("y").random(n) < probs).astype(np.int64)
        return probs, outcomes

    def test_fit_recovers_identity_on_calibrated_data(self):
        probs, outcomes = self._calibrated_sample(6)
        params = platt_fit(probs, outcomes)
        assert abs(params.a - 1.0) < 0.05
        assert abs(params.b) < 0.05

    def test_apply_identity_params(self):
        probs = np.array([0.2, 0.5, 0.9])
        np.testing.assert_allclose(platt_apply(PlattParams(a=1.0, b=0.0), probs),
                                   probs, atol=1e-9)

    def test_apply_constant_stays_constant(self):
        out = platt_apply(PlattParams(a=0.7, b=0.3), np.full(5, 0.4))
        assert len(np.unique(out)) == 1

    def test_apply_preserves_auc_for_positive_slope(self):
        rng = SeededRng(7)
        probs = rng.random(100)
        labels = (rng.random(100) < probs).astype(np.int64)
        params = PlattParams(a=2.5, b=-0.4)
        assert auc_roc(probs, labels) == auc_roc(
            platt_apply(params, probs), labels)

    def test_fit_corrects_temperature_distortion(self):
        probs, outcomes = self._calibrated_sample(8)
        logits = np.log(probs / (1 - probs + 1e-300) + 1e-300)
        distorted = sigmoid(2.5 * logits)
        params = platt_fit(distorted, outcomes)
        recal = platt_apply(params, distorted)
        assert ece(recal, outcomes) < ece(distorted, outcomes)
        assert abs(params.a - 1 / 2.5) < 0.05

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            platt_fit(np.array([0.2, 0.8]), np.array([1, 1]))

    @pytest.mark.parametrize("n", [10, 300, 5000])
    @pytest.mark.parametrize("slope, shift", [(1.0, 0.0), (2.5, 0.0), (0.4, 0.8), (1.7, -1.2)])
    def test_fit_has_the_bits_of_the_written_out_objective(self, n, slope, shift):
        rng = SeededRng(n)
        probs = 0.02 + 0.96 * rng.split("p").random(n)
        outcomes = (rng.split("y").random(n) < probs).astype(np.int64)
        outcomes[:2] = (0, 1)
        distorted = sigmoid(slope * np.log(probs / (1.0 - probs)) + shift)
        t = _logit(distorted)
        expected, _, _ = minimize_gd(
            lambda p: platt_objective_reference(p, t, outcomes.astype(np.float64)),
            np.array([1.0, 0.0]), tol=1e-8, max_iter=10_000)
        params = platt_fit(distorted, outcomes)
        assert (params.a, params.b) == (expected[0], expected[1])
