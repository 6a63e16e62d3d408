"""Shared fixtures: tiny datasets and pre-trained toy models.

Training fixtures are session-scoped so the expensive work happens once;
everything they return is immutable, so sharing across tests is safe.

BLAS runs one thread unless the environment says otherwise: a threaded
product may sum in another order, and on a small machine the threads
contend with every other process. The variables only take effect if they
are set before numpy is first imported.
"""
import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS threads")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import HealthCheck, settings

from tabuq import (Dataset, MlpModel, SeededRng, ToyConfig, TrainConfig,
                   VaeConfig, generate_toy, train_mlp, train_vae)

settings.register_profile(
    "suite", max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

# One line per shipping criterion, filled in by tests/test_acceptance.py and
# echoed after the test run so the verdicts survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def keep_draws(monkeypatch) -> list:
    """The (rows, row bytes) shape of every keep-bit draw MC-dropout scoring
    makes, in order.

    Scoring and training both draw through mlp._make_masks: scoring one call
    per pass from rng/pass<t>, training one call per epoch from each network's
    rng/dropout/<e>.
    """
    import tabuq.mlp as mlp

    shapes = []
    real = mlp._make_masks

    def counted(model, n_rows, rngs):
        bits = real(model, n_rows, rngs)
        if rngs[0].path[-1].startswith("pass"):
            shapes.append(bits.shape[1:])
        return bits

    monkeypatch.setattr(mlp, "_make_masks", counted)
    return shapes


@pytest.fixture
def handed_buffers(monkeypatch) -> list:
    """(name, array) for every step buffer that tabuq.mlp and tabuq.vae take
    from a buf dict, in order."""
    import tabuq.mlp
    import tabuq.numeric
    import tabuq.vae

    handed = []
    real = tabuq.numeric.step_buffer

    def recorded(buf, name, shape, dtype=np.float64):
        out = real(buf, name, shape, dtype)
        if buf is not None:
            handed.append((name, out))
        return out

    for module in (tabuq.mlp, tabuq.vae):
        monkeypatch.setattr(module, "step_buffer", recorded)
    return handed


def check_step_buffers(buf: dict, steps: list) -> None:
    """After steps of a full, a short and a full batch, each a list of
    handed_buffers' (name, array): buf holds one flat array per name, grown to
    the largest size asked, and the last two steps' buffers are contiguous
    views into it, so the short batch's share the full batch's memory. (The
    first step may outgrow a name's array, when it asks for it twice.)"""
    full, short, again = steps
    names = [name for name, _ in full]
    assert buf.keys() == set(names)
    for name, flat in buf.items():
        assert flat.ndim == 1
        assert flat.size == max(a.size for n, a in full if n == name)
    for (name, a), (_, b) in zip(short, again, strict=True):
        assert a.size < b.size
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert np.shares_memory(a, buf[name]) and np.shares_memory(a, b)
    assert [name for name, _ in short] == [name for name, _ in again] == names


def make_dataset(X, y, groups=None) -> Dataset:
    X = np.asarray(X, dtype=np.float64)
    names = tuple(f"x{i + 1}" for i in range(X.shape[1]))
    return Dataset(features=X, labels=np.asarray(y, dtype=np.int64),
                   feature_names=names, groups=groups or {})


@pytest.fixture(scope="session")
def toy_balanced() -> tuple[Dataset, Dataset, Dataset]:
    cfg = ToyConfig(mode="balanced")
    rng = SeededRng(0)
    return (generate_toy(cfg, rng.split("train")),
            generate_toy(cfg, rng.split("val")),
            generate_toy(cfg, rng.split("test")))


@pytest.fixture(scope="session")
def toy_unbalanced() -> tuple[Dataset, Dataset, Dataset]:
    cfg = ToyConfig(mode="unbalanced")
    rng = SeededRng(0)
    return (generate_toy(cfg, rng.split("train")),
            generate_toy(cfg, rng.split("val")),
            generate_toy(cfg, rng.split("test")))


@pytest.fixture(scope="session")
def toy_mlp(toy_balanced) -> MlpModel:
    train, val, _ = toy_balanced
    model, = train_mlp(train, val, TrainConfig.toy(), [SeededRng(1)])
    return model


@pytest.fixture(scope="session")
def toy_vae(toy_balanced):
    train, _, _ = toy_balanced
    return train_vae(train, VaeConfig.toy(), SeededRng(2))
