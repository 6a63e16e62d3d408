"""Noise-corruption detection sweep.

Trains every method once, then multiplies the noise scale of randomly chosen
test features by increasing factors and measures how well each method's
uncertainty separates corrupted rows from clean ones. Factor 1 is a control:
the "corruption" is a resample from the original distribution, so detection
AUC sits at exactly 0.5 and anything else would be a bug.
"""
import argparse

from tabuq import SeededRng, VaeConfig
from tabuq.data import apply_scaler, fit_scaler, generate_synthetic, split
from tabuq.evaluation import (METHODS, MethodSettings, corruption_experiment,
                              train_method)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--methods", nargs="+", default=list(METHODS),
                        choices=METHODS)
    parser.add_argument("--factors", type=float, nargs="+",
                        default=[1, 10, 100, 1000])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = SeededRng(args.seed)
    data = generate_synthetic(rng.split("data"))
    train, val, test = split(data, (0.6, 0.2, 0.2), rng.split("split"))
    scaler = fit_scaler(train)
    train, val, test = (apply_scaler(scaler, d) for d in (train, val, test))
    settings = MethodSettings(class_weighting=True,
                              vae=VaeConfig(latent_dim=5))

    fitted = [train_method(m, train, val, settings, rng.split(m))
              for m in args.methods]
    records = corruption_experiment(fitted, test, rng.split("corrupt"),
                                    tuple(args.factors))

    header = "  ".join(f"factor={f:<8g}" for f in args.factors)
    print(f"{'method':13s} {header}")
    for method in args.methods:
        cells = []
        for f in args.factors:
            mean = records[(method, f"factor={f:g}", "detection_auc_mean")]
            std = records[(method, f"factor={f:g}", "detection_auc_std")]
            cells.append(f"{mean:.4f}+-{std:.3f}" if std is not None
                         else f"{mean:.4f}")
        print(f"{method:13s} " + "  ".join(f"{c:15s}" for c in cells))


if __name__ == "__main__":
    main()
