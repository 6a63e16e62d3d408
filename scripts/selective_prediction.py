"""Confidence-performance curves on a synthetic churn-like problem.

For each method and seed: train, score the test split, then re-evaluate AUC
and ECE on shrinking subsets that drop the most uncertain predictions first.
If the uncertainty scores mean anything, the curves improve as coverage
falls. Prints mean +- std over seeds per retained fraction.
"""
import argparse

import numpy as np

from tabuq import SeededRng
from tabuq.data import generate_synthetic, split
from tabuq.evaluation import METHODS, MethodSettings, curve_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--methods", nargs="+", default=["nn-ensemble",
                                                         "bootstrap-lr"],
                        choices=METHODS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--fractions", type=float, nargs="+",
                        default=[0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    parser.add_argument("--platt", action="store_true",
                        help="recalibrate on the validation split first")
    args = parser.parse_args()

    settings = MethodSettings(class_weighting=True)
    per_seed = []
    for seed in args.seeds:
        rng = SeededRng(seed)
        data = generate_synthetic(rng.split("data"))
        # curve_experiment standardizes on the training split itself.
        train, val, test = split(data, (0.6, 0.2, 0.2), rng.split("split"))
        per_seed.append(curve_experiment(train, val, test, args.methods,
                                         settings, rng.split("curve"),
                                         tuple(args.fractions), args.platt))

    print(f"{'method':13s} {'fraction':>8s} {'auc':>16s} {'ece':>16s}")
    for method in args.methods:
        for f in sorted(args.fractions, reverse=True):
            ctx = f"f={f:.2f}"
            aucs = [r[(method, ctx, "auc")] for r in per_seed]
            eces = [r[(method, ctx, "ece")] for r in per_seed]
            if any(v is None for v in aucs):
                print(f"{method:13s} {f:8.2f} {'undefined':>16s}")
                continue
            print(f"{method:13s} {f:8.2f} "
                  f"{np.mean(aucs):8.4f} +-{np.std(aucs):5.4f} "
                  f"{np.mean(eces):8.4f} +-{np.std(eces):5.4f}")


if __name__ == "__main__":
    main()
