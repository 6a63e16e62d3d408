"""The timed stand-in for ``python -m tabuq``, bracketed by a reference loop.

Runs a fixed reference computation, then the tabuq CLI in this process,
then the reference again, and writes the times to a JSON report:

    python3 perfbench/timed_cli.py REPORT BATCH HIDDEN STEPS -- \
        --config config.json --out DIR --quiet

HIDDEN is a comma-separated list of layer widths. The reference is numpy
work of the same kind as the CLI's (minibatch steps of a dropout MLP, each
with a fresh random generator) and never touches tabuq, so a change to the
program cannot change it. The speed of a shared host drifts by a third or
more over minutes; measured on the same CPU just before and just after the
run, the reference moves with it, and the CLI's time divided by the
reference's is steadier than either.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter, process_time

import numpy as np


def reference_s(batch: int, hidden: tuple[int, ...], steps: int) -> tuple[float, float]:
    """Wall and CPU seconds of a fixed number of dropout-MLP training steps."""
    rng = np.random.default_rng(0)
    sizes = (10, *hidden, 1)
    weights = [rng.standard_normal((a, b)) * 0.1 for a, b in zip(sizes, sizes[1:])]
    X = rng.standard_normal((batch, sizes[0]))
    y = (rng.random(batch) < 0.15).astype(float)
    wall, cpu = perf_counter(), process_time()
    for step in range(steps):
        gen = np.random.default_rng([0, step])
        acts, masks = [X], []
        for w in weights[:-1]:
            mask = (gen.random((batch, w.shape[1])) >= 0.1) / 0.9
            acts.append(np.maximum(acts[-1] @ w, 0.0) * mask)
            masks.append(mask)
        probs = 1.0 / (1.0 + np.exp(-(acts[-1] @ weights[-1])[:, 0]))
        delta = ((probs - y) / batch)[:, None]
        for i in range(len(weights) - 1, -1, -1):
            grad = acts[i].T @ delta
            if i:
                delta = (delta @ weights[i].T) * masks[i - 1] * (acts[i] > 0)
            weights[i] = weights[i] - 0.01 * grad
    return perf_counter() - wall, process_time() - cpu


def main(argv: list[str]) -> int:
    report, batch, hidden, steps, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: timed_cli.py REPORT BATCH HIDDEN STEPS -- CLI_ARGS...")
    shape = (int(batch), tuple(int(h) for h in hidden.split(",")), int(steps))
    before = reference_s(*shape)
    wall, cpu = perf_counter(), process_time()
    from tabuq import cli

    code = cli.main(cli_args)
    wall, cpu = perf_counter() - wall, process_time() - cpu
    after = reference_s(*shape)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"cli_s": wall, "cli_cpu_s": cpu, "reference_s": [before[0], after[0]],
                   "reference_cpu_s": [before[1], after[1]]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
