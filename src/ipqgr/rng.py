"""Seeded, hierarchically derivable randomness.

Every stochastic operation in the package draws from a RandomSource so that
a (seed, call order) pair fully determines the output on any platform.
Derived sources let independent units of work (e.g. one epoch's span
sampling, or one document's pseudo-queries) use their own streams, which
makes results order-independent and resumable.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK64
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomSource:
    """Deterministic random stream backed by PCG64.

    Args:
        seed: Non-negative 64-bit integer root seed.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)
        self._path = tuple(_path)
        seq = np.random.SeedSequence([self.seed, *self._path])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def derive(self, *keys) -> "RandomSource":
        """Create an independent child stream keyed by ints or strings."""
        path = self._path + tuple(_key_to_int(k) for k in keys)
        return RandomSource(self.seed, path)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def gamma(self, shape: float, size=None):
        g = self._gen.standard_gamma(shape, size)
        return float(g) if size is None else g

    def integers(self, high: int, size=None):
        # Uniform over [0, high).
        return self._gen.integers(0, high, size=size)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        if k == 1:
            # numpy's choice picks one by Floyd's algorithm, the draw integers(0, n) makes.
            return np.array([self._gen.integers(0, n)])
        return self._gen.choice(n, size=k, replace=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
