import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tabuq import (METHODS, MethodSettings, SeededRng, ToyConfig, TrainConfig,
                   binary_entropy, confidence_performance,
                   corruption_experiment, curve_experiment, ece,
                   generate_synthetic, generate_toy, grid_2d, ood_experiment,
                   predict_mlp, seed_sweep, toy_surfaces, train_methods, train_mlp)
from tabuq.cli import _seed_data, parse_config
from tabuq.data import Dataset
from tabuq import cli, evaluation, numeric
from tabuq.errors import (ConfigError, DataError, ParameterError, ShapeError, TrainingError,
                          UndefinedMetricError)
from tabuq.metrics import auc_roc

from oracles import fit_method_reference


def fit_seed(names, train, val, settings, rng, paired=False):
    """One seed's methods, from train_methods on a group of that seed alone."""
    methods, = train_methods(names, [(train, val, rng)], settings, paired)
    return methods


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
        with pytest.raises(ParameterError, match="uncertainties must not be NaN"):
            confidence_performance([0.2, 0.8, 0.6, 0.3], [math.nan, 0.1, 0.2, 0.3], [0, 1, 1, 0])

    def test_full_fraction_equals_full_set_metrics(self):
        rng = SeededRng(0)
        probs = rng.uniform(0.0, 1.0, 40)
        labels = (rng.uniform(0.0, 1.0, 40) < probs).astype(np.int64)
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
        fitted, = fit_seed([name], train, val, MethodSettings.toy(), SeededRng(1))
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

    def test_mc_dropout_scorer_draws_every_pass_on_every_call(self, toy_world, keep_draws):
        train, val, test = toy_world
        st = MethodSettings.toy()
        fitted, = fit_seed(["mc-dropout"], train, val, st, SeededRng(4))
        clean = fitted.predict(test.features)
        assert not np.array_equal(fitted.predict(test.features * 3.0), clean)
        np.testing.assert_array_equal(fitted.predict(test.features), clean)
        fitted.predict(test.features[:7])
        row_bytes = -(-st.mlp.hidden[0] // 8)
        assert keep_draws == ([(test.n, row_bytes)] * st.mc_passes * 3
                              + [(7, row_bytes)] * st.mc_passes)

    def test_unknown_method(self, toy_world):
        train, val, _ = toy_world
        with pytest.raises(ConfigError, match="gradient-boost"):
            fit_seed(["gradient-boost"], train, val, MethodSettings.toy(), SeededRng(2))

    def test_classifier_uncertainty_is_prediction_entropy(self, toy_world):
        train, val, test = toy_world
        for fitted in fit_seed(("single-nn", "nn-ensemble", "mc-dropout", "bootstrap-lr"),
                               train, val, MethodSettings.toy(), SeededRng(3)):
            probs, unc = fitted.score(test.features)
            np.testing.assert_array_equal(unc, binary_entropy(probs))

    def test_scoring_closures_are_pure(self, toy_world):
        # Repeated calls re-derive their rng children, so scores never drift.
        train, val, test = toy_world
        for fitted in fit_seed(("mc-dropout", "vae"), train, val, MethodSettings.toy(),
                               SeededRng(4)):
            np.testing.assert_array_equal(fitted.score(test.features)[1],
                                          fitted.score(test.features)[1])

    def test_score_runs_each_model_once(self, toy_world):
        train, val, test = toy_world
        calls = []
        fitted, = fit_seed(["mc-dropout"], train, val, MethodSettings.toy(), SeededRng(4))
        predict = fitted.predict
        fitted.predict = lambda X: calls.append("predict") or predict(X)
        fitted.uncertainty = lambda X: calls.append("uncertainty")
        fitted.score(test.features)
        assert calls == ["predict"]

    def test_vae_paired_with_its_classifier(self, toy_world):
        train, val, test = toy_world
        st, rng = MethodSettings.toy(), SeededRng(5)
        single, paired = fit_seed(["single-nn", "vae"], train, val, st, rng, paired=True)
        alone, unpaired = fit_seed(["single-nn", "vae"], train, val, st, rng)
        classifier, = train_mlp(train, val, st.mlp, [rng.split("vae-classifier").split("model")],
                                st.class_weighting)
        probs, novelty = paired.score(test.features)
        np.testing.assert_array_equal(probs, predict_mlp(classifier, test.features))
        np.testing.assert_array_equal(novelty, unpaired.score(test.features)[1])
        np.testing.assert_array_equal(single.predict(test.features), alone.predict(test.features))
        assert unpaired.predict is None

    @pytest.mark.parametrize("paired", [False, True])
    def test_train_methods_keeps_each_stream_path(self, toy_world, monkeypatch, paired):
        # The benchmark tracer swaps the module's train_method, binds its name
        # and rng, and labels each span by the method; the VAE's classifier is
        # handed to the VAE's own call, so no call is made on its stream path.
        import tabuq.evaluation as evaluation

        calls = []
        real = evaluation.train_method

        def recorded(name, settings, rng, models):
            calls.append((name, rng.path))
            return real(name, settings, rng, models)

        monkeypatch.setattr(evaluation, "train_method", recorded)
        train, val, _ = toy_world
        rng = SeededRng(6).split("curve")
        fitted = fit_seed(["vae", "bootstrap-lr"], train, val, MethodSettings.toy(),
                          rng, paired)
        assert [f.name for f in fitted] == ["vae", "bootstrap-lr"]
        assert (fitted[0].predict is not None) == paired
        assert calls == [("vae", ("curve", "vae")),
                         ("bootstrap-lr", ("curve", "bootstrap-lr"))]

    def test_class_weighting_reaches_the_networks(self, toy_world):
        train, val, test = toy_world
        fitted, = fit_seed(["single-nn"], train, val, dataclasses.replace(
            MethodSettings.toy(), class_weighting=True), SeededRng(6))
        model, = train_mlp(train, val, TrainConfig.toy(),
                           [SeededRng(6).split("single-nn").split("model")], weighting=True)
        np.testing.assert_array_equal(fitted.predict(test.features),
                                      predict_mlp(model, test.features))

    def test_same_seed_same_method(self, toy_world):
        train, val, test = toy_world
        a, = fit_seed(["nn-ensemble"], train, val, MethodSettings.toy(), SeededRng(5))
        b, = fit_seed(["nn-ensemble"], train, val, MethodSettings.toy(), SeededRng(5))
        np.testing.assert_array_equal(a.predict(test.features),
                                      b.predict(test.features))


class TestSharedFit:
    """train_methods fits every network of a seed in one train_mlp call."""

    @staticmethod
    def record_fits(monkeypatch) -> list:
        import tabuq.evaluation as evaluation

        fits = []
        real = evaluation.train_mlp

        def recorded(*args, **kwargs):
            fits.append(real(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(evaluation, "train_mlp", recorded)
        return fits

    def check_own_fits(self, toy_world, monkeypatch, names, paired, ensemble_size, patience):
        """Each network of the shared fit, and each method's scores, have the
        bits of the method fitted alone (fit_method_reference)."""
        import tabuq.mlp

        stacked = []  # the number of networks still training in each epoch
        real_adam = tabuq.mlp.minibatch_adam

        def counted(*args, **kwargs):
            for epoch, flat, members in real_adam(*args, **kwargs):
                stacked.append(len(members))
                yield epoch, flat, members

        monkeypatch.setattr(tabuq.mlp, "minibatch_adam", counted)
        fits = self.record_fits(monkeypatch)
        train, val, test = toy_world
        st = dataclasses.replace(
            MethodSettings.toy(), ensemble_size=ensemble_size,
            mlp=TrainConfig(hidden=(5,), batch_size=8, lr=1e-2, max_epochs=20, patience=patience))
        rng = SeededRng(30)
        shared = fit_seed(names, train, val, st, rng, paired)
        if patience:  # some networks stop while others train on
            assert len(set(stacked)) >= 2
        (together,) = fits
        fits.clear()
        alone = []
        for name in names:  # the classifier's network sits at the VAE's place
            fitted = fit_method_reference(name, train, val, st, rng.split(name))
            if name == "vae" and paired:
                fitted = dataclasses.replace(fitted, predict=fit_method_reference(
                    "single-nn", train, val, st, rng.split("vae-classifier")).predict)
            alone.append(fitted)
        networks = [net for fit in fits for net in fit]
        assert len(together) == len(networks) == 2 + ensemble_size + paired
        for a, b in zip(together, networks):
            for pa, pb in zip(a.params(), b.params()):
                np.testing.assert_array_equal(pa, pb)
        for a, b in zip(shared, alone, strict=True):
            assert a.name == b.name
            for pa, pb in zip(a.score(test.features), b.score(test.features)):
                np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("patience", [None, 1])
    @pytest.mark.parametrize("ensemble_size", [1, 3])
    @pytest.mark.parametrize("paired", [False, True])
    def test_each_network_has_the_bits_of_its_own_fit(self, toy_world, monkeypatch,
                                                       paired, ensemble_size, patience):
        self.check_own_fits(toy_world, monkeypatch, METHODS, paired, ensemble_size, patience)

    def test_vae_named_first_with_its_classifier(self, toy_world, monkeypatch):
        # The classifier's network moves from last in the stack to first.
        names = ("vae", *METHODS[:-1])
        self.check_own_fits(toy_world, monkeypatch, names, True, 3, 1)

    @pytest.mark.parametrize("names, paired, calls", [
        (METHODS, True, 1), (METHODS, False, 1), (("bootstrap-lr", "vae"), False, 0)])
    def test_one_train_mlp_call_per_seed(self, toy_world, monkeypatch, names, paired, calls):
        fits = self.record_fits(monkeypatch)
        train, val, _ = toy_world
        fit_seed(names, train, val, MethodSettings.toy(), SeededRng(31), paired)
        assert len(fits) == calls


OVERLAP_SCRIPT = """
import dataclasses, hashlib, math, threading
import tabuq.evaluation as evaluation
import tabuq.numeric as numeric
from tabuq import METHODS, MethodSettings, SeededRng, TrainConfig, generate_synthetic, split

train, val, test = split(generate_synthetic(SeededRng(3), n=1000), (0.6, 0.2, 0.2), SeededRng(4))
st = dataclasses.replace(MethodSettings(mlp=TrainConfig(max_epochs=2)), mc_passes=10)
st = dataclasses.replace(st, vae=dataclasses.replace(st.vae, epochs=2))
assert min(st.vae.batch_size, train.n) * st.vae.latent_dim >= numeric.WORKER_MIN
threads = []
real = evaluation.train_vae
evaluation.train_vae = lambda *a: threads.append(threading.current_thread().name) or real(*a)
for gate in (numeric.WORKER_MIN, math.inf):
    numeric.WORKER_MIN = gate
    h = hashlib.sha256()
    for fitted in evaluation.train_methods(METHODS, [(train, val, SeededRng(5))], st,
                                           paired=True)[0]:
        for scores in fitted.score(test.features):
            h.update(scores.tobytes())
    print(threads[-1], h.hexdigest())
"""


class TestOverlappedVaeFit:
    """Above numeric.WORKER_MIN, train_methods fits the VAE and then
    bootstrap-LR on a worker thread during the train_mlp call, with the bits
    of a fit on the calling thread."""

    @staticmethod
    def settings(train: Dataset) -> MethodSettings:
        # The smallest latent whose VAE step reaches the gate, and a full-batch
        # MLP whose hidden layer is wide enough for one network's step to reach it.
        st = MethodSettings.toy()
        latent = -(-numeric.WORKER_MIN // min(st.vae.batch_size, train.n))
        mlp = dataclasses.replace(st.mlp, batch_size=train.n,
                                  hidden=(-(-numeric.WORKER_MIN // train.n),))
        return dataclasses.replace(st, mlp=mlp,
                                   vae=dataclasses.replace(st.vae, latent_dim=latent))

    @staticmethod
    def record_fits(monkeypatch, trainer: str = "train_vae", fail: bool = False) -> list:
        """(fitted on a worker thread, fitted model(s) or None) per call of
        evaluation's trainer; with fail, each call raises TrainingError("vae fit") instead,
        after 0.2 s, so that a worker left unjoined is still running when the
        caller returns."""
        fits = []
        real = getattr(evaluation, trainer)

        def recorded(*args):
            on_worker = threading.current_thread() is not threading.main_thread()
            fits.append((on_worker, None if fail else real(*args)))
            if fail:
                time.sleep(0.2)
                raise TrainingError("vae fit")
            return fits[-1][1]

        monkeypatch.setattr(evaluation, trainer, recorded)
        return fits

    @pytest.mark.parametrize("paired", [False, True])
    def test_same_bits_as_the_fit_in_order(self, toy_world, monkeypatch, paired):
        fits = self.record_fits(monkeypatch)
        lr_fits = self.record_fits(monkeypatch, "train_bootstrapped_lr")
        train, val, test = toy_world
        st, rng = self.settings(train), SeededRng(40)
        threads = threading.active_count()
        overlapped = fit_seed(METHODS, train, val, st, rng, paired)
        assert threading.active_count() == threads
        monkeypatch.setattr(numeric, "WORKER_MIN", math.inf)
        in_order = fit_seed(METHODS, train, val, st, rng, paired)
        (worker, a), (caller, b) = fits
        assert worker and not caller
        for pa, pb in zip(a.params(), b.params(), strict=True):
            np.testing.assert_array_equal(pa, pb)
        (worker, a), (caller, b) = lr_fits
        assert worker and not caller
        assert len(a) == len(b) == st.ensemble_size
        for ma, mb in zip(a, b, strict=True):
            np.testing.assert_array_equal(ma.weights, mb.weights)
            assert ma.bias == mb.bias
        for x, y in zip(overlapped, in_order, strict=True):
            assert x.name == y.name
            for sx, sy in zip(x.score(test.features), y.score(test.features)):
                np.testing.assert_array_equal(sx, sy)

    def test_same_bits_with_two_blas_threads(self):
        src = Path(evaluation.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "2",
               "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
        out = subprocess.run([sys.executable, "-c", OVERLAP_SCRIPT], env=env,
                             capture_output=True, text=True, check=True).stdout
        (worker, overlapped), (caller, in_order) = (line.split() for line in out.splitlines())
        assert worker == "tabuq-vae" and caller == "MainThread"
        assert overlapped == in_order

    @pytest.mark.parametrize("names, paired", [(("single-nn", "vae"), True),
                                               (("vae", "nn-ensemble"), False)])
    def test_below_the_gate_or_without_an_mlp_fit_the_vae_fits_in_order(
            self, toy_world, monkeypatch, names, paired):
        fits = self.record_fits(monkeypatch)
        train, val, _ = toy_world
        st = MethodSettings.toy()
        assert min(st.vae.batch_size, train.n) * st.vae.latent_dim < numeric.WORKER_MIN
        fit_seed(names, train, val, st, SeededRng(41), paired)
        fit_seed(["vae", "bootstrap-lr"], train, val, self.settings(train), SeededRng(41))
        assert [worker for worker, _ in fits] == [False, False]

    # Below the gate (toy sizes), or without a VAE (step 0) beside an MLP step
    # that reaches the gate, every fit runs on the calling thread: the MLP
    # stack, the VAE, then bootstrap-LR.
    @pytest.mark.parametrize("names, toy", [(("bootstrap-lr", "vae", "single-nn"), True),
                                            (("bootstrap-lr", "single-nn"), False)])
    def test_below_the_gate_or_without_a_vae_every_fit_runs_in_order(
            self, toy_world, monkeypatch, names, toy):
        order = []
        for trainer in ("train_mlp", "train_vae", "train_bootstrapped_lr"):
            def recorded(*args, trainer=trainer, real=getattr(evaluation, trainer)):
                order.append((trainer, threading.current_thread() is threading.main_thread()))
                return real(*args)

            monkeypatch.setattr(evaluation, trainer, recorded)
        train, val, _ = toy_world
        st = MethodSettings.toy() if toy else self.settings(train)
        fit_seed(names, train, val, st, SeededRng(46), paired=True)
        assert order == [("train_mlp", True), *[("train_vae", True)] * toy,
                         ("train_bootstrapped_lr", True)]

    def test_large_vae_beside_the_toy_mlp_fits_in_order(self, toy_world, monkeypatch):
        # A Python-bound toy MLP fit (200 rows, batch 8, hidden 5) beside a VAE
        # whose steps reach numeric.WORKER_MIN: overlapping them only made both slower.
        fits = self.record_fits(monkeypatch)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        train, val, _ = toy_world
        st = MethodSettings.toy()
        st = dataclasses.replace(st, vae=dataclasses.replace(st.vae, latent_dim=328))
        assert (train.n, st.mlp.batch_size, st.mlp.hidden) == (200, 8, (5,))
        assert min(st.vae.batch_size, train.n) * 328 >= numeric.WORKER_MIN
        fit_seed(METHODS, train, val, st, SeededRng(44), paired=True)
        assert [worker for worker, _ in fits] == [False]
        assert started == []

    def test_vae_error_raised_before_any_method_is_built(self, toy_world, monkeypatch):
        fits = self.record_fits(monkeypatch, fail=True)
        built = []
        real = evaluation.train_method

        def recorded(name, *args):
            built.append(name)
            return real(name, *args)

        monkeypatch.setattr(evaluation, "train_method", recorded)
        train, val, _ = toy_world
        threads = threading.active_count()
        with pytest.raises(TrainingError, match="vae fit"):
            fit_seed(["single-nn", "bootstrap-lr", "vae", "mc-dropout"], train, val,
                     self.settings(train), SeededRng(42), paired=True)
        assert threading.active_count() == threads
        assert [worker for worker, _ in fits] == [True]
        assert built == []

    # Without an MLP method the step is 0 and the VAE fits on the caller; the
    # single NN opens the gate, so the VAE fits on the worker beside it.
    @pytest.mark.parametrize("names, on_worker", [(("bootstrap-lr", "vae"), False),
                                                  (("bootstrap-lr", "vae", "single-nn"), True)])
    def test_vae_error_wins_over_bootstrap_lr_error(self, toy_world, monkeypatch,
                                                    names, on_worker):
        fits = self.record_fits(monkeypatch, fail=True)

        def failing(*args):
            raise TrainingError("bootstrap-lr fit")

        monkeypatch.setattr(evaluation, "train_bootstrapped_lr", failing)
        train, val, _ = toy_world
        with pytest.raises(TrainingError, match="vae fit"):
            fit_seed(names, train, val, self.settings(train), SeededRng(45))
        assert [worker for worker, _ in fits] == [on_worker]

    def test_mlp_error_wins_over_vae_error(self, toy_world, monkeypatch):
        fits = self.record_fits(monkeypatch, fail=True)

        def failing(*args):
            raise TrainingError("mlp fit")

        monkeypatch.setattr(evaluation, "train_mlp", failing)
        train, val, _ = toy_world
        threads = threading.active_count()
        with pytest.raises(TrainingError, match="mlp fit"):
            fit_seed(METHODS, train, val, self.settings(train), SeededRng(43), paired=True)
        assert threading.active_count() == threads
        assert [worker for worker, _ in fits] == [True]


class TestCurveExperiment:
    @staticmethod
    def fitted(toy_world, methods, seed, paired=True):
        train, val, _ = toy_world
        return fit_seed(methods, train, val, MethodSettings.toy(), SeededRng(seed), paired)

    def test_record_grid_complete(self, toy_world):
        _, val, test = toy_world
        methods = ("single-nn", "vae")
        records = curve_experiment(self.fitted(toy_world, methods, 6), val, test,
                                   fractions=(0.5, 1.0))
        for m in methods:
            for f in (0.5, 1.0):
                ctx = f"f={f:.2f}"
                assert (m, ctx, "ece") in records
                assert (m, ctx, "positive_fraction") in records
                assert (m, ctx, "auc") in records

    def test_platt_records_emitted_when_enabled(self, toy_world):
        _, val, test = toy_world
        records = curve_experiment(self.fitted(toy_world, ("bootstrap-lr",), 7), val, test,
                                   fractions=(1.0,), use_platt=True)
        assert ("bootstrap-lr", "platt", "a") in records
        assert ("bootstrap-lr", "platt", "b") in records

    def test_vae_rows_use_paired_classifier_probabilities(self, toy_world):
        _, val, test = toy_world
        records = curve_experiment(self.fitted(toy_world, ("vae",), 8), val, test,
                                   fractions=(1.0,))
        # The VAE itself has no classifier; its curve AUC exists because a
        # companion network supplies predictions.
        assert records[("vae", "f=1.00", "auc")] is not None

    @pytest.mark.parametrize("use_platt", [False, True])
    def test_method_without_probability_refused_by_name(self, toy_world, use_platt):
        _, val, test = toy_world
        with pytest.raises(ParameterError, match="method 'vae' has no probability"):
            curve_experiment(self.fitted(toy_world, ("vae",), 8, paired=False), val, test,
                             fractions=(1.0,), use_platt=use_platt)

    def test_mc_dropout_scores_test_and_val_once_each(self, toy_world, monkeypatch):
        rows = []
        real = evaluation.mc_dropout_predict

        def counted(model, X, *args):
            rows.append(len(X))
            return real(model, X, *args)

        monkeypatch.setattr(evaluation, "mc_dropout_predict", counted)
        _, val, test = toy_world
        curve_experiment(self.fitted(toy_world, ("mc-dropout",), 9), val, test,
                         fractions=(1.0,), use_platt=True)
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

    @staticmethod
    def _records(data, methods, seed, tag="held", **keys):
        """The records cli._execute makes for one seed of an ood:<tag> config
        with these methods and keys, on data in place of its CSV."""
        cfg = parse_config({"dataset": "csv:groups.csv", "experiment": f"ood:{tag}",
                            "methods": list(methods), **keys})
        rng = SeededRng(seed)
        train, val, test, ood = _seed_data(cfg, data, rng)
        fitted = fit_seed(cfg.methods, train, val, cfg.settings, rng.split("ood"))
        return ood_experiment(fitted, test, ood, cfg.ood_tag)

    def test_result_fields_and_range(self):
        data = self._tagged_synthetic(9)
        records = self._records(data, ["bootstrap-lr"], 10)
        assert list(records) == [("bootstrap-lr", "group=held", "detection_auc"),
                                 ("bootstrap-lr", "group=held", "subgroup_auc")]
        assert all(0.0 <= v <= 1.0 for v in records.values())

    def test_vae_has_no_subgroup_auc(self):
        data = self._tagged_synthetic(11)
        records = self._records(data, ["vae"], 12)
        assert records[("vae", "group=held", "subgroup_auc")] is None

    def test_single_class_group_subgroup_absent(self):
        data = self._tagged_synthetic(13)
        labels = data.labels.copy()
        labels[data.groups["held"]] = 0
        data = Dataset(data.features, labels, data.feature_names, data.groups)
        records = self._records(data, ["bootstrap-lr"], 14)
        assert records[("bootstrap-lr", "group=held", "subgroup_auc")] is None

    def test_far_shifted_group_detected_by_vae(self):
        data = self._tagged_synthetic(15, shift=25.0)
        records = self._records(data, ["vae"], 16)
        assert records[("vae", "group=held", "detection_auc")] > 0.95

    def test_unknown_tag_propagates(self):
        data = self._tagged_synthetic(17)
        with pytest.raises(DataError):
            self._records(data, ["vae"], 18, tag="ghost")

    def test_methods_share_one_split_and_keep_their_streams(self):
        # Each method trains on rng/ood/<method> over the one split, so a
        # joint call gives every record of the single-method calls.
        data = self._tagged_synthetic(19)
        joint = self._records(data, ["bootstrap-lr", "vae"], 20)
        alone = {**self._records(data, ["bootstrap-lr"], 20),
                 **self._records(data, ["vae"], 20)}
        assert joint == alone

    def test_mc_dropout_scores_test_and_ood_rows_once(self, monkeypatch):
        rows = []
        real = evaluation.mc_dropout_predict

        def counted(model, X, *args):
            rows.append(len(X))
            return real(model, X, *args)

        monkeypatch.setattr(evaluation, "mc_dropout_predict", counted)
        data = self._tagged_synthetic(21)
        keys = {"hidden": [8], "max_epochs": 2, "mc_passes": 5}
        self._records(data, ["mc-dropout"], 22, **keys)
        *_, test, ood = _seed_data(parse_config(
            {"dataset": "csv:groups.csv", "experiment": "ood:held"}), data, SeededRng(22))
        assert rows == [test.n + ood.n]

    def test_split_fractions_reach_the_split(self, monkeypatch):
        seen = []
        real = cli.split

        def recorded(data, fractions, rng):
            seen.append((fractions, rng.path))
            return real(data, fractions, rng)

        monkeypatch.setattr(cli, "split", recorded)
        data = self._tagged_synthetic(23)
        records = self._records(data, ["bootstrap-lr"], 24, split_fractions=[0.5, 0.3, 0.2])
        assert seen == [((0.5, 0.3, 0.2), ("ood", "split"))]
        assert records[("bootstrap-lr", "group=held", "detection_auc")] is not None


class TestCorruptionExperiment:
    def test_factor_one_exactly_half_for_every_method(self, toy_world):
        train, val, test = toy_world
        fitted = fit_seed(METHODS, train, val, MethodSettings.toy(), SeededRng(19))
        records = corruption_experiment(fitted, test, factors=(1,),
                                        rng=SeededRng(20))
        for m in METHODS:
            assert records[(m, "factor=1", "detection_auc_mean")] == 0.5
            for fname in test.feature_names:
                assert records[(m, f"factor=1.feature={fname}",
                                "detection_auc")] == 0.5

    def test_record_layout_and_std(self, toy_world):
        train, val, test = toy_world
        fitted = fit_seed(["vae"], train, val, MethodSettings.toy(), SeededRng(21))
        records = corruption_experiment(fitted, test, factors=(1000,),
                                        n_features=30, rng=SeededRng(22))
        # Toy data has 2 columns, so both are sampled despite n_features=30.
        per_feature = [k for k in records if k[2] == "detection_auc"]
        assert len(per_feature) == 2
        assert records[("vae", "factor=1000", "detection_auc_std")] is not None

    def test_std_absent_for_single_feature(self, toy_world):
        train, val, test = toy_world
        fitted = fit_seed(["vae"], train, val, MethodSettings.toy(), SeededRng(23))
        records = corruption_experiment(fitted, test, factors=(10,),
                                        n_features=1, rng=SeededRng(24))
        assert records[("vae", "factor=10", "detection_auc_std")] is None

    @pytest.mark.parametrize("n_features", [0, -1])
    def test_fewer_than_one_feature_refused(self, toy_world, n_features):
        # At 0 the mean over no features was NaN; at -1, permutation(d)[:-1]
        # scored d - 1 features.
        train, val, test = toy_world
        fitted = fit_seed(["bootstrap-lr"], train, val, MethodSettings.toy(), SeededRng(27))
        with pytest.raises(ParameterError, match=f"n_features must be at least 1, got {n_features}"):
            corruption_experiment(fitted, test, SeededRng(28), (10,), n_features)

    def test_no_factors_refused(self, toy_world):
        train, val, test = toy_world
        fitted = fit_seed(["bootstrap-lr"], train, val, MethodSettings.toy(), SeededRng(27))
        with pytest.raises(ParameterError, match="factors must name at least one factor"):
            corruption_experiment(fitted, test, SeededRng(28), ())

    def test_rerun_bitwise_identical(self, toy_world):
        train, val, test = toy_world
        fitted = fit_seed(["mc-dropout"], train, val, MethodSettings.toy(), SeededRng(25))
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

    @pytest.mark.parametrize("error", [
        TypeError("unsupported operand"), MemoryError("Unable to allocate 14.6 TiB"),
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")],
        ids=lambda e: type(e).__name__)
    def test_foreign_errors_propagate_unchanged(self, error):
        def experiment(rng):
            raise error

        with pytest.raises(type(error)) as raised:
            seed_sweep(experiment, seeds=(3,))
        assert raised.value is error

    def test_no_seeds_rejected(self):
        with pytest.raises(ParameterError):
            seed_sweep(lambda rng: {}, seeds=())


class TestToySurfaces:
    def test_classifier_surfaces(self, toy_world):
        train, val, _ = toy_world
        fitted, = fit_seed(["single-nn"], train, val, MethodSettings.toy(), SeededRng(28))
        grid = grid_2d(((-6.0, 6.0), (-6.0, 6.0)), 12)
        surfaces = toy_surfaces(fitted, grid)
        assert set(surfaces) == {"probability", "entropy"}
        np.testing.assert_array_equal(
            surfaces["entropy"], binary_entropy(surfaces["probability"]))

    def test_vae_surface(self, toy_world):
        train, val, _ = toy_world
        fitted, = fit_seed(["vae"], train, val, MethodSettings.toy(), SeededRng(29))
        surfaces = toy_surfaces(fitted, grid_2d(((-6.0, 6.0), (-6.0, 6.0)), 5))
        assert set(surfaces) == {"novelty"}
        assert surfaces["novelty"].shape == (25,)

    def test_paired_vae_surface(self, toy_world):
        train, val, _ = toy_world
        fitted, = fit_seed(["vae"], train, val, MethodSettings.toy(), SeededRng(29),
                           paired=True)
        surfaces = toy_surfaces(fitted, grid_2d(((-6.0, 6.0), (-6.0, 6.0)), 5))
        assert list(surfaces) == ["probability", "entropy", "novelty"]
        np.testing.assert_array_equal(
            surfaces["entropy"], binary_entropy(surfaces["probability"]))

    def test_rejects_non_2d_grid(self, toy_world):
        train, val, _ = toy_world
        fitted, = fit_seed(["single-nn"], train, val, MethodSettings.toy(), SeededRng(30))
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
            fitted, = fit_seed(["single-nn"], train, val, st, SeededRng(32))
            s = toy_surfaces(fitted, grid)
            confident_pos = s["probability"] > 0.5
            entropies[weighted] = (s["entropy"][confident_pos].min()
                                   if confident_pos.any() else math.inf)
        assert entropies[True] < 0.3
        assert entropies[False] > 0.3
