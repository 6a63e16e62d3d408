"""Per-layer tracing of one tabuq CLI run, from outside the package.

Timing wrappers are installed over tabuq's public functions before the CLI
runs. A function imported by name into several modules is replaced in every
module that binds it, so callers inside the package hit the wrapper too.
Each wrapped call records a span (name, start, end, parent, run id) in
memory; the spans are written out, and reduced to the per-layer metrics,
when the run ends.

Run as a script, it is the traced stand-in for ``python -m tabuq``:

    python3 perfbench/tracer.py --run-id ID --spans FILE --metrics FILE -- \
        --config config.json --out DIR --quiet
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from workloads import METHODS

# (module, attribute, span name). Every binding of the same function object
# anywhere in the package is replaced by one wrapper.
TIMED = (
    ("evaluation", "confidence_performance", "evaluation.confidence_performance"),
    ("evaluation", "corruption_experiment", "evaluation.corruption_experiment"),
    ("evaluation", "toy_surfaces", "evaluation.toy_surfaces"),
    ("mlp", "train_mlp", "mlp.train_mlp"),
    ("mlp", "mlp_loss_and_grads", "mlp.mlp_loss_and_grads"),
    ("mlp", "mlp_loss", "mlp.mlp_loss"),
    ("ensemble", "train_deep_ensemble", "ensemble.train_deep_ensemble"),
    ("ensemble", "ensemble_predict", "ensemble.ensemble_predict"),
    ("logistic", "train_bootstrapped_lr", "logistic.train_bootstrapped_lr"),
    ("logistic", "train_logistic", "logistic.train_logistic"),
    ("vae", "train_vae", "vae.train_vae"),
    ("vae", "vae_loss_and_grads", "vae.vae_loss_and_grads"),
    ("vae", "vae_novelty_score", "vae.vae_novelty_score"),
    ("metrics", "auc_roc", "metrics.auc_roc"),
    ("metrics", "ece", "metrics.ece"),
    ("metrics", "binary_entropy", "metrics.binary_entropy"),
    ("metrics", "platt_fit", "metrics.platt_fit"),
    ("numeric", "adam_step", "numeric.adam_step"),
    ("numeric", "dropout_mask", "numeric.dropout_mask"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "generate_toy", "data.generate_toy"),
    ("data", "split", "data.split"),
    ("data", "fit_scaler", "data.scale"),
    ("data", "apply_scaler", "data.scale"),
    ("data", "corrupt_feature", "data.corrupt_feature"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "_write_outputs", "cli.write_outputs"),
)


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._scored: set = set()
        self._fitted = 0
        self.missing: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def timed_train_method(self, fn):
        """Names the span by method and wraps the returned scorers."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            # The VAE's companion classifier is trained as a single NN on the
            # "vae-classifier" stream; its scoring counts towards the VAE.
            companion = bound["rng"].path[-1:] == ("vae-classifier",)
            label = "vae-classifier" if companion else bound["name"]
            fitted = self.call(f"evaluation.train_method.{label}", fn, *args, **kwargs)
            self._fitted += 1
            owner, method = self._fitted, "vae" if companion else bound["name"]
            if fitted.predict is not None:
                fitted.predict = self._scorer(method, owner, fitted.predict)
            fitted.uncertainty = self._scorer(method, owner, fitted.uncertainty)
            return fitted
        return wrapper

    def _scorer(self, method: str, owner: int, fn):
        def scored(X):
            key = (owner, X.shape, hashlib.blake2b(X.tobytes(), digest_size=16).digest())
            self.counts["evaluation.score.repeats"] += key in self._scored
            self._scored.add(key)
            self.counts[f"evaluation.score.{method}.rows"] += X.shape[0]
            return self.call(f"evaluation.score.{method}", fn, X)
        return scored

    def timed_mc_dropout(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            passes = bound.arguments["T"]
            self.counts["mlp.mc_dropout_predict.forward_passes"] += passes
            self.counts["mlp.mc_dropout_predict.row_passes"] += passes * len(bound.arguments["X"])
            return self.call("mlp.mc_dropout_predict", fn, *args, **kwargs)
        return wrapper

    def timed_minimize_gd(self, fn):
        """Counts objective evaluations and reads (x, gradient norm, iterations)."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            objective = bound.arguments["f_and_grad"]

            def counted(x):
                self.counts["numeric.minimize_gd.evals"] += 1
                return objective(x)

            bound.arguments["f_and_grad"] = counted
            result = self.call("numeric.minimize_gd", fn, *bound.args, **bound.kwargs)
            _, gnorm, iters = result
            self.counts["numeric.minimize_gd.iters"] += iters
            self.counts["numeric.minimize_gd.unconverged"] += gnorm > bound.arguments["tol"]
            return result
        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced function across the package."""
        import tabuq
        from tabuq.rng import SeededRng

        modules = [tabuq] + [importlib.import_module(f"tabuq.{m.name}")
                             for m in pkgutil.iter_modules(tabuq.__path__)
                             if not m.name.startswith("_")]
        targets = [(mod, attr, functools.partial(self.timed, name))
                   for mod, attr, name in TIMED]
        targets += [("evaluation", "train_method", self.timed_train_method),
                    ("mlp", "mc_dropout_predict", self.timed_mc_dropout),
                    ("numeric", "minimize_gd", self.timed_minimize_gd)]
        wrappers = {}
        for mod, attr, make in targets:
            fn = getattr(sys.modules.get(f"tabuq.{mod}"), attr, None)
            if fn is None:
                self.missing.append(f"tabuq.{mod}.{attr}")
                continue
            wrappers[id(fn)] = make(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        SeededRng.split = self.timed("rng.split", SeededRng.split)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,run_id\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{self.run_id}\n")

    def summary(self) -> dict:
        """Per-layer metrics, plus each span name's total and self time."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        durations: dict[str, list[float]] = defaultdict(list)
        covered = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            duration = end - start
            total[name] += duration
            self_time[name] += duration - covered[i]
            calls[name] += 1
            if name.startswith("evaluation.score."):
                durations[name].append(duration)
            if parent >= 0:
                covered[parent] += duration
        c = self.counts
        m: dict[str, float] = {}
        for label in METHODS + ("vae-classifier",):
            m[f"evaluation.train_method.{label}.s"] = total[f"evaluation.train_method.{label}"]
        score_calls = 0
        for method in METHODS:
            name = f"evaluation.score.{method}"
            times = durations[name]
            score_calls += calls[name]
            m[f"{name}.s"] = total[name]
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.rows"] = c[f"{name}.rows"]
            m[f"{name}.p50_s"] = float(np.percentile(times, 50)) if times else 0.0
            m[f"{name}.p90_s"] = float(np.percentile(times, 90)) if times else 0.0
        m["evaluation.score.repeat_share"] = _ratio(c["evaluation.score.repeats"], score_calls)
        for name in ("confidence_performance", "corruption_experiment", "toy_surfaces"):
            m[f"evaluation.{name}.s"] = total[f"evaluation.{name}"]

        m["mlp.train_mlp.s"] = total["mlp.train_mlp"]
        m["mlp.steps"] = calls["mlp.mlp_loss_and_grads"]
        # A training step is everything train_mlp does outside its validation evals.
        m["mlp.step.s"] = _ratio(total["mlp.train_mlp"] - total["mlp.mlp_loss"],
                                 calls["mlp.mlp_loss_and_grads"])
        m["mlp.val_evals"] = calls["mlp.mlp_loss"]
        m["mlp.mc_dropout_predict.s"] = total["mlp.mc_dropout_predict"]
        m["mlp.mc_dropout_predict.forward_passes"] = c["mlp.mc_dropout_predict.forward_passes"]
        m["mlp.mc_dropout_predict.row_passes_per_s"] = _ratio(
            c["mlp.mc_dropout_predict.row_passes"], total["mlp.mc_dropout_predict"])
        m["ensemble.train_deep_ensemble.s"] = total["ensemble.train_deep_ensemble"]
        m["ensemble.ensemble_predict.s"] = total["ensemble.ensemble_predict"]
        m["logistic.train_bootstrapped_lr.s"] = total["logistic.train_bootstrapped_lr"]
        m["logistic.train_logistic.calls"] = calls["logistic.train_logistic"]
        m["vae.train_vae.s"] = total["vae.train_vae"]
        m["vae.steps"] = calls["vae.vae_loss_and_grads"]
        m["vae.step.s"] = _ratio(total["vae.train_vae"], calls["vae.vae_loss_and_grads"])
        m["vae.vae_novelty_score.s"] = total["vae.vae_novelty_score"]
        for name in ("auc_roc", "ece", "binary_entropy", "platt_fit"):
            m[f"metrics.{name}.s"] = total[f"metrics.{name}"]
        m["metrics.auc_roc.calls"] = calls["metrics.auc_roc"]
        for name in ("adam_step", "dropout_mask"):
            m[f"numeric.{name}.calls"] = calls[f"numeric.{name}"]
            m[f"numeric.{name}.s"] = total[f"numeric.{name}"]
        gd_calls = calls["numeric.minimize_gd"]
        m["numeric.minimize_gd.calls"] = gd_calls
        m["numeric.minimize_gd.iters"] = c["numeric.minimize_gd.iters"]
        m["numeric.minimize_gd.evals_per_iter"] = _ratio(c["numeric.minimize_gd.evals"],
                                                         c["numeric.minimize_gd.iters"])
        m["numeric.minimize_gd.unconverged_share"] = _ratio(
            c["numeric.minimize_gd.unconverged"], gd_calls)
        m["rng.split.calls"] = calls["rng.split"]
        m["rng.split.s"] = total["rng.split"]
        for name in ("load_csv", "generate_toy", "split", "scale"):
            m[f"data.{name}.s"] = total[f"data.{name}"]
        m["data.corrupt_feature.s"] = total["data.corrupt_feature"]
        m["data.corrupt_feature.calls"] = calls["data.corrupt_feature"]
        m["cli.parse_config.s"] = total["cli.parse_config"]
        m["cli.write_outputs.s"] = total["cli.write_outputs"]
        return {"metrics": m, "total_s": dict(total), "self_s": dict(self_time),
                "calls": dict(calls), "missing": self.missing}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the tabuq CLI with per-layer tracing.")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans", required=True, help="where to write the span CSV")
    parser.add_argument("--metrics", required=True, help="where to write the summary JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for the tabuq CLI, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    tracer.install()
    from tabuq import cli

    code = cli.main(cli_args)
    tracer.write_spans(args.spans)
    with open(args.metrics, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main())
