import math

import numpy as np
import pytest

from tabuq import (METHODS, MethodSettings, SeededRng, ToyConfig, TrainConfig,
                   binary_entropy, confidence_performance,
                   corruption_experiment, curve_experiment, ece,
                   generate_synthetic, generate_toy, grid_2d, ood_experiment,
                   predict_mlp, seed_sweep, toy_surfaces, train_method,
                   train_mlp, train_with_classifier)
from tabuq.data import Dataset, exclude_group, split
from tabuq.errors import (ConfigError, DataError, ParameterError, ShapeError,
                          UndefinedMetricError)
from tabuq.metrics import auc_roc

from conftest import make_dataset


class TestConfidencePerformance:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confidence_performance(np.zeros(3), np.zeros(2), np.zeros(3, dtype=np.int64))

    def test_probability_range(self):
        with pytest.raises(ParameterError):
            confidence_performance([1.2, 0.5], [0.1, 0.2], [1, 0])

    def test_nan_probability_rejected(self):
        with pytest.raises(ParameterError):
            confidence_performance([math.nan, 0.5], [0.1, 0.2], [1, 0])

    def test_full_fraction_equals_full_set_metrics(self):
        rng = SeededRng(0)
        probs = rng.random(40)
        labels = (rng.random(40) < probs).astype(np.int64)
        (point,) = confidence_performance(probs, binary_entropy(probs), labels,
                                          fractions=(1.0,))
        assert point.auc == auc_roc(probs, labels)
        assert point.ece == ece(probs, labels)
        assert point.positive_fraction == labels.mean()

    def test_errors_ranked_most_uncertain_leave_first(self):
        # 10 confident correct rows per class, then 10 uncertain wrong rows:
        # at f=0.5 only the correct half remains, so AUC is exactly 1.
        probs = np.array([0.95] * 5 + [0.05] * 5 + [0.45] * 5 + [0.55] * 5)
        labels = np.array([1] * 5 + [0] * 5 + [0] * 5 + [1] * 5)
        labels[10:] = 1 - labels[10:]  # uncertain rows are misclassified
        half, full = confidence_performance(probs, binary_entropy(probs), labels,
                                            fractions=(0.5, 1.0))
        assert half.auc == 1.0
        assert full.auc < 1.0

    def test_constant_uncertainty_keeps_original_order(self):
        probs = np.linspace(0.1, 0.9, 10)
        labels = np.array([0, 1] * 5)
        (point,) = confidence_performance(probs, np.full(10, 0.7), labels,
                                          fractions=(0.3,))
        # ceil(0.3 * 10) = 3 rows, stably the first three original rows.
        np.testing.assert_allclose(point.positive_fraction, 1.0 / 3.0)

    def test_prefix_size_floor_is_one(self):
        (point,) = confidence_performance([0.9, 0.1], [0.1, 0.2], [1, 0],
                                          fractions=(0.01,))
        assert point.auc is None  # single kept row has one class
        assert point.positive_fraction == 1.0

    def test_single_class_prefix_reports_absent_auc(self):
        probs = np.array([0.9, 0.8, 0.3, 0.4])
        labels = np.array([1, 1, 0, 0])
        half, = confidence_performance(probs, np.array([0.0, 0.1, 0.8, 0.9]),
                                       labels, fractions=(0.5,))
        assert half.auc is None
        assert half.positive_fraction == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            confidence_performance([], [], [], fractions=(1.0,))

    def test_single_class_full_set_rejected(self):
        with pytest.raises(UndefinedMetricError):
            confidence_performance([0.2, 0.3], [0.1, 0.2], [0, 0], fractions=(1.0,))

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            confidence_performance([0.2, 0.8], [0.1, 0.2], [0, 1], fractions=(0.0,))


@pytest.fixture(scope="module")
def toy_world():
    cfg = ToyConfig(mode="unbalanced")
    rng = SeededRng(0)
    return (generate_toy(cfg, rng.split("train")),
            generate_toy(cfg, rng.split("val")),
            generate_toy(cfg, rng.split("test")))


class TestTrainMethod:
    @pytest.mark.parametrize("name", METHODS)
    def test_each_method_scores_and_predicts(self, toy_world, name):
        train, val, test = toy_world
        fitted = train_method(name, train, val, MethodSettings.toy(),
                              SeededRng(1))
        assert fitted.name == name
        probs, unc = fitted.score(test.features)
        assert unc.shape == (test.n,)
        assert np.isfinite(unc).all()
        if name == "vae":
            assert fitted.predict is None and probs is None
        else:
            assert fitted.uncertainty is None
            assert ((0 < probs) & (probs < 1)).all()
            np.testing.assert_array_equal(probs, fitted.predict(test.features))

    def test_mc_dropout_scorer_draws_each_row_count_once(self, toy_world, keep_draws):
        train, val, test = toy_world
        st = MethodSettings.toy()
        fitted = train_method("mc-dropout", train, val, st, SeededRng(4))
        clean = fitted.predict(test.features)
        assert not np.array_equal(fitted.predict(test.features * 3.0), clean)
        np.testing.assert_array_equal(fitted.predict(test.features), clean)
        fitted.predict(test.features[:7])
        row_bytes = -(-st.mlp.hidden[0] // 8)
        assert keep_draws == [(test.n, row_bytes)] * st.mc_passes + [(7, row_bytes)] * st.mc_passes
        # Each trained method owns its cache.
        train_method("mc-dropout", train, val, st, SeededRng(4)).predict(test.features)
        assert len(keep_draws) == 3 * st.mc_passes

    def test_unknown_method(self, toy_world):
        train, val, _ = toy_world
        with pytest.raises(ConfigError, match="gradient-boost"):
            train_method("gradient-boost", train, val, MethodSettings.toy(),
                         SeededRng(2))

    def test_classifier_uncertainty_is_prediction_entropy(self, toy_world):
        train, val, test = toy_world
        for name in ("single-nn", "nn-ensemble", "mc-dropout", "bootstrap-lr"):
            fitted = train_method(name, train, val, MethodSettings.toy(),
                                  SeededRng(3))
            probs, unc = fitted.score(test.features)
            np.testing.assert_array_equal(unc, binary_entropy(probs))

    def test_scoring_closures_are_pure(self, toy_world):
        # Repeated calls re-derive their rng children, so scores never drift.
        train, val, test = toy_world
        for name in ("mc-dropout", "vae"):
            fitted = train_method(name, train, val, MethodSettings.toy(),
                                  SeededRng(4))
            np.testing.assert_array_equal(fitted.score(test.features)[1],
                                          fitted.score(test.features)[1])

    def test_score_runs_each_model_once(self, toy_world):
        train, val, test = toy_world
        calls = []
        fitted = train_method("mc-dropout", train, val, MethodSettings.toy(),
                              SeededRng(4))
        predict = fitted.predict
        fitted.predict = lambda X: calls.append("predict") or predict(X)
        fitted.uncertainty = lambda X: calls.append("uncertainty")
        fitted.score(test.features)
        assert calls == ["predict"]

    def test_vae_paired_with_its_classifier(self, toy_world):
        train, val, test = toy_world
        st, rng = MethodSettings.toy(), SeededRng(5)
        paired = train_with_classifier("vae", train, val, st, rng)
        vae = train_method("vae", train, val, st, rng.split("vae"))
        classifier = train_method("single-nn", train, val, st, rng.split("vae-classifier"))
        probs, novelty = paired.score(test.features)
        np.testing.assert_array_equal(probs, classifier.predict(test.features))
        np.testing.assert_array_equal(novelty, vae.score(test.features)[1])
        single = train_with_classifier("single-nn", train, val, st, rng)
        np.testing.assert_array_equal(
            single.predict(test.features),
            train_method("single-nn", train, val, st, rng.split("single-nn")).predict(test.features))

    def test_class_weighting_reaches_the_networks(self, toy_world):
        train, val, test = toy_world
        fitted = train_method("single-nn", train, val,
                              MethodSettings.toy(class_weighting=True), SeededRng(6))
        model, = train_mlp(train, val, TrainConfig.toy(), [SeededRng(6).split("model")],
                           weighting=True)
        np.testing.assert_array_equal(fitted.predict(test.features),
                                      predict_mlp(model, test.features))

    def test_same_seed_same_method(self, toy_world):
        train, val, test = toy_world
        a = train_method("nn-ensemble", train, val, MethodSettings.toy(),
                         SeededRng(5))
        b = train_method("nn-ensemble", train, val, MethodSettings.toy(),
                         SeededRng(5))
        np.testing.assert_array_equal(a.predict(test.features),
                                      b.predict(test.features))


class TestCurveExperiment:
    def test_record_grid_complete(self, toy_world):
        train, val, test = toy_world
        methods = ("single-nn", "vae")
        records = curve_experiment(train, val, test, methods,
                                   MethodSettings.toy(), SeededRng(6),
                                   fractions=(0.5, 1.0))
        for m in methods:
            for f in (0.5, 1.0):
                ctx = f"f={f:.2f}"
                assert (m, ctx, "ece") in records
                assert (m, ctx, "positive_fraction") in records
                assert (m, ctx, "auc") in records

    def test_platt_records_emitted_when_enabled(self, toy_world):
        train, val, test = toy_world
        records = curve_experiment(train, val, test, ("bootstrap-lr",),
                                   MethodSettings.toy(), SeededRng(7),
                                   fractions=(1.0,), use_platt=True)
        assert ("bootstrap-lr", "platt", "a") in records
        assert ("bootstrap-lr", "platt", "b") in records

    def test_vae_rows_use_paired_classifier_probabilities(self, toy_world):
        train, val, test = toy_world
        records = curve_experiment(train, val, test, ("vae",),
                                   MethodSettings.toy(), SeededRng(8),
                                   fractions=(1.0,))
        # The VAE itself has no classifier; its curve AUC exists because a
        # companion network supplies predictions.
        assert records[("vae", "f=1.00", "auc")] is not None

    def test_mc_dropout_scores_test_and_val_once_each(self, toy_world, monkeypatch):
        import tabuq.evaluation as evaluation

        rows = []
        real = evaluation.mc_dropout_predict

        def counted(model, X, *args):
            rows.append(len(X))
            return real(model, X, *args)

        monkeypatch.setattr(evaluation, "mc_dropout_predict", counted)
        train, val, test = toy_world
        curve_experiment(train, val, test, ("mc-dropout",), MethodSettings.toy(),
                         SeededRng(9), fractions=(1.0,), use_platt=True)
        assert sorted(rows) == sorted([test.n, val.n])


class TestOodExperiment:
    def _tagged_synthetic(self, seed, shift=0.0):
        rng = SeededRng(seed)
        data = generate_synthetic(rng.split("data"), n=900, d=4, informative=3)
        pick = rng.split("pick").permutation(data.n)[:150]
        held = np.zeros(data.n, dtype=bool)
        held[pick] = True
        X = data.features.copy()
        X[pick] += shift * X.std(axis=0)
        return Dataset(features=X, labels=data.labels,
                       feature_names=data.feature_names, groups={"held": held})

    def test_result_fields_and_range(self):
        data = self._tagged_synthetic(9)
        records = ood_experiment(data, "held", ["bootstrap-lr"],
                                 MethodSettings(standardize=True), SeededRng(10))
        assert list(records) == [("bootstrap-lr", "group=held", "detection_auc"),
                                 ("bootstrap-lr", "group=held", "subgroup_auc")]
        assert all(0.0 <= v <= 1.0 for v in records.values())

    def test_vae_has_no_subgroup_auc(self):
        data = self._tagged_synthetic(11)
        records = ood_experiment(data, "held", ["vae"], MethodSettings(),
                                 SeededRng(12))
        assert records[("vae", "group=held", "subgroup_auc")] is None

    def test_single_class_group_subgroup_absent(self):
        data = self._tagged_synthetic(13)
        labels = data.labels.copy()
        labels[data.groups["held"]] = 0
        data = Dataset(data.features, labels, data.feature_names, data.groups)
        records = ood_experiment(data, "held", ["bootstrap-lr"], MethodSettings(),
                                 SeededRng(14))
        assert records[("bootstrap-lr", "group=held", "subgroup_auc")] is None

    def test_far_shifted_group_detected_by_vae(self):
        data = self._tagged_synthetic(15, shift=25.0)
        records = ood_experiment(data, "held", ["vae"], MethodSettings(),
                                 SeededRng(16))
        assert records[("vae", "group=held", "detection_auc")] > 0.95

    def test_unknown_tag_propagates(self):
        data = self._tagged_synthetic(17)
        with pytest.raises(DataError):
            ood_experiment(data, "ghost", ["vae"], MethodSettings(), SeededRng(18))

    def test_methods_share_one_split_and_keep_their_streams(self):
        # Each method trains on rng/<method> over the one split, so a joint
        # call gives every record of the single-method calls.
        data = self._tagged_synthetic(19)
        st, rng = MethodSettings(), SeededRng(20)
        joint = ood_experiment(data, "held", ["bootstrap-lr", "vae"], st, rng)
        alone = {**ood_experiment(data, "held", ["bootstrap-lr"], st, rng),
                 **ood_experiment(data, "held", ["vae"], st, rng)}
        assert joint == alone

    def test_mc_dropout_scores_test_and_ood_rows_once(self, monkeypatch):
        import tabuq.evaluation as evaluation

        rows = []
        real = evaluation.mc_dropout_predict

        def counted(model, X, *args):
            rows.append(len(X))
            return real(model, X, *args)

        monkeypatch.setattr(evaluation, "mc_dropout_predict", counted)
        data = self._tagged_synthetic(21)
        in_domain, ood = exclude_group(data, "held")
        _, _, test = split(in_domain, (0.6, 0.2, 0.2), SeededRng(22).split("split"))
        st = MethodSettings(mlp=TrainConfig(hidden=(8,), max_epochs=2), mc_passes=5)
        ood_experiment(data, "held", ["mc-dropout"], st, SeededRng(22))
        assert rows == [test.n + ood.n]

    def test_split_fractions_reach_the_split(self, monkeypatch):
        import tabuq.evaluation as evaluation

        seen = []
        real = evaluation.split

        def recorded(data, fractions, rng):
            seen.append(fractions)
            return real(data, fractions, rng)

        monkeypatch.setattr(evaluation, "split", recorded)
        data = self._tagged_synthetic(23)
        records = ood_experiment(data, "held", ["bootstrap-lr"], MethodSettings(),
                                 SeededRng(24), (0.5, 0.3, 0.2))
        assert seen == [(0.5, 0.3, 0.2)]
        assert records[("bootstrap-lr", "group=held", "detection_auc")] is not None


class TestCorruptionExperiment:
    def test_factor_one_exactly_half_for_every_method(self, toy_world):
        train, val, test = toy_world
        fitted = [train_method(m, train, val, MethodSettings.toy(),
                               SeededRng(19).split(m)) for m in METHODS]
        records = corruption_experiment(fitted, test, factors=(1,),
                                        rng=SeededRng(20))
        for m in METHODS:
            assert records[(m, "factor=1", "detection_auc_mean")] == 0.5
            for fname in test.feature_names:
                assert records[(m, f"factor=1.feature={fname}",
                                "detection_auc")] == 0.5

    def test_record_layout_and_std(self, toy_world):
        train, val, test = toy_world
        fitted = [train_method("vae", train, val, MethodSettings.toy(),
                               SeededRng(21))]
        records = corruption_experiment(fitted, test, factors=(1000,),
                                        n_features=30, rng=SeededRng(22))
        # Toy data has 2 columns, so both are sampled despite n_features=30.
        per_feature = [k for k in records if k[2] == "detection_auc"]
        assert len(per_feature) == 2
        assert records[("vae", "factor=1000", "detection_auc_std")] is not None

    def test_std_absent_for_single_feature(self, toy_world):
        train, val, test = toy_world
        fitted = [train_method("vae", train, val, MethodSettings.toy(),
                               SeededRng(23))]
        records = corruption_experiment(fitted, test, factors=(10,),
                                        n_features=1, rng=SeededRng(24))
        assert records[("vae", "factor=10", "detection_auc_std")] is None

    def test_rerun_bitwise_identical(self, toy_world):
        train, val, test = toy_world
        fitted = [train_method("mc-dropout", train, val, MethodSettings.toy(),
                               SeededRng(25))]
        a = corruption_experiment(fitted, test, factors=(10,), rng=SeededRng(26))
        b = corruption_experiment(fitted, test, factors=(10,), rng=SeededRng(26))
        assert a == b


class TestSeedSweep:
    def test_aggregates_mean_and_std(self):
        def experiment(rng):
            return {("m", "ctx", "metric"): float(rng.seed)}

        sweep = seed_sweep(experiment, seeds=(0, 1, 2, 3, 4))
        assert sweep.seeds == (0, 1, 2, 3, 4)
        assert len(sweep.per_seed) == 5
        assert sweep.mean[("m", "ctx", "metric")] == 2.0
        expected_std = float(np.std([0, 1, 2, 3, 4], ddof=1))
        assert abs(sweep.std[("m", "ctx", "metric")] - expected_std) < 1e-12

    def test_single_seed_std_absent(self):
        sweep = seed_sweep(lambda rng: {("m", "c", "v"): 1.0}, seeds=(7,))
        assert sweep.mean[("m", "c", "v")] == 1.0
        assert sweep.std[("m", "c", "v")] is None

    def test_identical_results_zero_std(self):
        sweep = seed_sweep(lambda rng: {("m", "c", "v"): 3.5}, seeds=(0, 1))
        assert sweep.std[("m", "c", "v")] == 0.0

    def test_absent_values_skipped_in_aggregation(self):
        def experiment(rng):
            value = None if rng.seed == 0 else 2.0
            return {("m", "c", "v"): value}

        sweep = seed_sweep(experiment, seeds=(0, 1, 2))
        assert sweep.mean[("m", "c", "v")] == 2.0

    def test_errors_tagged_with_seed(self):
        def experiment(rng):
            raise DataError("boom")

        with pytest.raises(DataError, match="seed 0: boom"):
            seed_sweep(experiment, seeds=(0,))

    def test_no_seeds_rejected(self):
        with pytest.raises(ParameterError):
            seed_sweep(lambda rng: {}, seeds=())


class TestToySurfaces:
    def test_classifier_surfaces(self, toy_world):
        train, val, _ = toy_world
        fitted = train_method("single-nn", train, val, MethodSettings.toy(),
                              SeededRng(28))
        grid = grid_2d(((-6.0, 6.0), (-6.0, 6.0)), 12)
        surfaces = toy_surfaces(fitted, grid)
        assert set(surfaces) == {"probability", "entropy"}
        np.testing.assert_array_equal(
            surfaces["entropy"], binary_entropy(surfaces["probability"]))

    def test_vae_surface(self, toy_world):
        train, val, _ = toy_world
        fitted = train_method("vae", train, val, MethodSettings.toy(),
                              SeededRng(29))
        surfaces = toy_surfaces(fitted, grid_2d(((-6.0, 6.0), (-6.0, 6.0)), 5))
        assert set(surfaces) == {"novelty"}
        assert surfaces["novelty"].shape == (25,)

    def test_paired_vae_surface(self, toy_world):
        train, val, _ = toy_world
        fitted = train_with_classifier("vae", train, val, MethodSettings.toy(),
                                       SeededRng(29))
        surfaces = toy_surfaces(fitted, grid_2d(((-6.0, 6.0), (-6.0, 6.0)), 5))
        assert list(surfaces) == ["probability", "entropy", "novelty"]
        np.testing.assert_array_equal(
            surfaces["entropy"], binary_entropy(surfaces["probability"]))

    def test_rejects_non_2d_grid(self, toy_world):
        train, val, _ = toy_world
        fitted = train_method("single-nn", train, val, MethodSettings.toy(),
                              SeededRng(30))
        with pytest.raises(ShapeError):
            toy_surfaces(fitted, np.zeros((4, 3)))

    def test_weighting_carves_confident_positive_region(self):
        # Around the minority cluster, only the class-weighted model develops
        # a confidently positive cell (p > 0.5 at entropy below 0.3); the
        # unweighted model stays hedged there. Config and threshold fixed by
        # desk runs over seeds 32-36.
        from tabuq import TrainConfig

        cfg = ToyConfig(mode="unbalanced")
        rng = SeededRng(31)
        train = generate_toy(cfg, rng.split("train"))
        val = generate_toy(cfg, rng.split("val"))
        grid = grid_2d(((0.0, 4.0), (0.0, 4.0)), 9)  # around the (2,2) cluster
        tc = TrainConfig(hidden=(20,), batch_size=8, max_epochs=40, lr=1e-2,
                         patience=None)
        entropies = {}
        for weighted in (False, True):
            st = MethodSettings(mlp=tc, class_weighting=weighted,
                                standardize=False)
            s = toy_surfaces(train_method("single-nn", train, val, st,
                                          SeededRng(32)), grid)
            confident_pos = s["probability"] > 0.5
            entropies[weighted] = (s["entropy"][confident_pos].min()
                                   if confident_pos.any() else math.inf)
        assert entropies[True] < 0.3
        assert entropies[False] > 0.3
