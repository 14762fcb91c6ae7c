"""Deterministic, vectorized pseudo-randomness built on SplitMix64.

The k-machine model assumes each machine has a private source of true random
bits, and the algorithms of the paper additionally distribute *shared*
random bits from machine M1 (Section 2.2).  In the simulator both are
modeled as seeds: a seed plus a stream of 64-bit words derived from it by
SplitMix64, a small, well-mixed permutation-based generator.  SplitMix64 is
not a k-wise independent family — where the paper requires provable k-wise
independence we provide :class:`repro.sketch.kwise.PolynomialHash`; the PRF
here is the documented fast path (see DESIGN.md, substitution table).

All functions are vectorized over NumPy ``uint64`` arrays and are safe under
NumPy's wraparound semantics (unsigned overflow is intentional and exact).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GOLDEN_GAMMA",
    "SeedStream",
    "derive_seed",
    "splitmix64",
    "splitmix64_scalar",
    "uniform_from_u64",
]

#: The SplitMix64 increment (odd, chosen by Steele et al. for equidistribution).
GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Apply the SplitMix64 finalizer to ``x`` (vectorized).

    Parameters
    ----------
    x:
        Scalar or array of ``uint64`` values (anything convertible).

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of the same shape with well-mixed values.
    """
    z = np.asarray(x, dtype=np.uint64)
    z = z + GOLDEN_GAMMA  # fresh array; in-place below never aliases input
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def splitmix64_scalar(x: int) -> int:
    """Scalar SplitMix64 finalizer returning a Python ``int`` in [0, 2^64)."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Derive a child seed from a tuple of integers.

    Mixing is associative-free (order matters) and collision-resistant for
    practical purposes: each part is folded through the SplitMix64
    finalizer.  Used to key per-phase, per-iteration, per-label randomness,
    e.g. ``derive_seed(seed, phase, iteration)``.
    """
    acc = 0x243F6A8885A308D3  # pi fractional bits; arbitrary non-zero start
    for p in parts:
        acc = splitmix64_scalar(acc ^ (int(p) & 0xFFFFFFFFFFFFFFFF))
    return acc


def uniform_from_u64(u: np.ndarray) -> np.ndarray:
    """Map ``uint64`` words to float64 uniforms in [0, 1).

    Uses the top 53 bits so the result is exactly representable.
    """
    u = np.asarray(u, dtype=np.uint64)
    return (u >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


class SeedStream:
    """A named, counter-based stream of pseudo-random words.

    Provides both scalar draws and vectorized keyed lookups.  Two streams
    created with the same seed produce identical outputs — this is the
    mechanism behind "shared randomness" in the simulator: after machine M1
    distributes its seed (charged to the round ledger by
    :mod:`repro.cluster.shared_random`), every machine constructs the same
    ``SeedStream`` and evaluates the same hash values locally.

    Parameters
    ----------
    seed:
        Any integer; only the low 64 bits are used.
    """

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int) -> None:
        # Mix the raw seed through the finalizer: nearby seeds (e.g.
        # ``base + iteration``) must not produce correlated keyed lookups.
        # Without this, ``(key ^ seed)`` collides across (key, seed) pairs
        # whose XOR difference cancels — observed as persistent hot spots
        # in repeated proxy draws.
        self._seed = np.uint64(splitmix64_scalar(seed & 0xFFFFFFFFFFFFFFFF))
        self._counter = 0

    @property
    def seed(self) -> int:
        """The stream's base seed (low 64 bits)."""
        return int(self._seed)

    def next_u64(self) -> int:
        """Draw the next 64-bit word from the stream (stateful)."""
        self._counter += 1
        return splitmix64_scalar(int(self._seed) ^ self._counter)

    def keyed_u64(self, keys: np.ndarray | int) -> np.ndarray:
        """Stateless keyed lookup: words for ``keys`` (vectorized PRF).

        The same (seed, key) pair always yields the same word, regardless of
        stream position — this models a shared hash function evaluated
        independently by different machines.
        """
        k = np.asarray(keys, dtype=np.uint64)
        return splitmix64(k ^ self._seed)

    def keyed_uniform(self, keys: np.ndarray | int) -> np.ndarray:
        """Stateless keyed uniforms in [0, 1) for ``keys``."""
        return uniform_from_u64(self.keyed_u64(keys))

    def keyed_choice(self, keys: np.ndarray | int, n_choices: int) -> np.ndarray:
        """Stateless keyed choice in ``[0, n_choices)`` for ``keys``.

        Uses the high-quality multiply-shift reduction (Lemire) rather than
        modulo, avoiding bias for small ``n_choices``.
        """
        if n_choices <= 0:
            raise ValueError(f"n_choices must be positive, got {n_choices}")
        u = self.keyed_u64(keys)
        # (u * n) >> 64 without 128-bit ints: use the top 32 bits twice.
        hi = (u >> np.uint64(32)).astype(np.uint64)
        return ((hi * np.uint64(n_choices)) >> np.uint64(32)).astype(np.int64)
