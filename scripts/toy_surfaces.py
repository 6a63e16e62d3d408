"""Decision surfaces on the two-cluster toy problem.

Trains every method on a fresh toy draw, evaluates probability, entropy and
(for the VAE) novelty over a regular grid, and writes one CSV per method.
The VAE's probability and entropy come from its paired single NN.
The weighted/unweighted contrast on the unbalanced mode is the interesting
part: weighting opens up a confident positive region over the minority
cluster that the unweighted model never commits to.
"""
import argparse
from pathlib import Path

import numpy as np

from tabuq import SeededRng, ToyConfig, generate_toy, grid_2d
from tabuq.evaluation import METHODS, MethodSettings, toy_surfaces, train_with_classifier


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("balanced", "unbalanced"),
                        default="unbalanced")
    parser.add_argument("--weighted", action="store_true",
                        help="apply class weighting to every classifier loss")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=50)
    parser.add_argument("--bound", type=float, default=8.0,
                        help="grid covers [-bound, bound] on both axes")
    parser.add_argument("--out", type=Path, default=Path("surfaces"))
    args = parser.parse_args()

    rng = SeededRng(args.seed)
    toy = ToyConfig(mode=args.mode)
    train = generate_toy(toy, rng.split("train"))
    val = generate_toy(toy, rng.split("val"))
    grid = grid_2d(((-args.bound, args.bound), (-args.bound, args.bound)),
                   args.resolution)
    settings = MethodSettings.toy(class_weighting=args.weighted)

    args.out.mkdir(parents=True, exist_ok=True)
    for name in METHODS:
        fitted = train_with_classifier(name, train, val, settings, rng)
        surfaces = toy_surfaces(fitted, grid)
        columns = ["x1", "x2"] + sorted(surfaces)
        table = np.column_stack([grid] + [surfaces[c] for c in columns[2:]])
        path = args.out / f"{name}.csv"
        header = ",".join(columns)
        np.savetxt(path, table, delimiter=",", header=header, comments="")
        summary = "  ".join(f"{c} mean {surfaces[c].mean():.3f}"
                            for c in columns[2:])
        print(f"{name:13s} -> {path}  ({summary})")


if __name__ == "__main__":
    main()
