"""Seeded, splittable random number streams.

All randomness in the toolkit flows through :class:`SeededRng`, a thin wrapper
around numpy's PCG64 generator. The wrapper adds one thing numpy does not give
us directly: deterministic stream splitting by string label. A child stream is
derived from the root seed plus the hashed path of labels, never from the
parent's consumed state, so the same (seed, label path) always yields the same
stream regardless of how much the parent has been used. A node builds its
generator on its first draw, so a node that only splits never builds one.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import ParameterError


def _label_hash(label: str) -> int:
    # Stable across processes (unlike builtin hash) and collision-resistant.
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "little")


def _words(n: int) -> bytes:
    # The uint32 words SeedSequence reads an int entropy value as, least
    # significant first and without high zero words, as little-endian bytes.
    return n.to_bytes(4 * max(1, (n.bit_length() + 31) // 32), "little")


class SeededRng:
    """Deterministic random stream, splittable into independent children.

    The generator algorithm is fixed repo-wide to PCG64. Identical seeds
    produce identical streams; ``split(label)`` derives an independent child
    whose state depends only on the seed and the sequence of labels. A seed
    lies in [0, 2**64), so that no two seeds share a stream.
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = (), _entropy: bytes = b""):
        self.seed = int(seed)
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be in [0, 2**64), got {self.seed}")
        self.path = _path
        self._entropy = _entropy or b"".join(map(_words, (self.seed, *map(_label_hash, _path))))

    def split(self, label: str) -> "SeededRng":
        """Child stream for `label`; distinct labels never share state."""
        return SeededRng(self.seed, self.path + (str(label),),
                         self._entropy + _words(_label_hash(str(label))))

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        """The PCG64 generator of SeedSequence([seed, *label hashes]), built on first draw."""
        words = np.frombuffer(self._entropy, dtype="<u4")
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def normal(self, shape=None, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(size=shape)

    def integers(self, low: int, high: int | None = None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def random_raw(self, size: int) -> np.ndarray:
        return self._gen.bit_generator.random_raw(size)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"
