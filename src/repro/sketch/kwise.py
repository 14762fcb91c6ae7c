"""Hash families for sketch randomness.

The paper (Section 2.3, citing Cormode-Firmani [10] and Alon et al. [4, 5])
builds l0-samplers from Theta(log n)-wise independent bits generated out of
O(log^2 n) true random bits.  We provide:

* :class:`PolynomialHash` — a degree-(d-1) random polynomial over
  F_{2^61-1}; the textbook d-wise independent family.  Used by default in
  tests and available everywhere.
* :class:`SplitMix64Hash` — a keyed SplitMix64 PRF.  Not provably d-wise
  independent, but ~10x faster and empirically indistinguishable for our
  workloads; the documented fast path for large benchmark sweeps
  (see DESIGN.md substitution table and ``bench_ablation_hash``).

Both map ``uint64`` keys to values uniform in ``[0, 2^61 - 1)`` and expose
the same interface, so :class:`~repro.sketch.l0.SketchSpec` can swap them.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.sketch.field import MERSENNE_P, poly_eval
from repro.util.rng import SeedStream, derive_seed, splitmix64

__all__ = ["HashFamily", "PolynomialHash", "SplitMix64Hash", "make_hash"]


class HashFamily(Protocol):
    """Common interface: vectorized uint64 keys -> values in [0, p)."""

    def values(self, keys: np.ndarray) -> np.ndarray:
        """Hash ``keys`` to uint64 values in ``[0, 2^61 - 1)``."""
        ...  # pragma: no cover - protocol


class PolynomialHash:
    """d-wise independent hashing via a random degree-(d-1) polynomial.

    For any d distinct keys the values are independent and uniform over
    F_p — exactly the guarantee the sketch analysis of [10] requires with
    d = Theta(log n).

    Parameters
    ----------
    seed:
        Seed for the coefficient draw.
    independence:
        The d in d-wise independence (number of coefficients).
    """

    def __init__(self, seed: int, independence: int) -> None:
        if independence < 1:
            raise ValueError(f"independence must be >= 1, got {independence}")
        self.independence = independence
        stream = SeedStream(derive_seed(seed, 0x90F7))
        raw = stream.keyed_u64(np.arange(independence, dtype=np.uint64))
        self.coeffs = (raw % np.uint64(MERSENNE_P)).astype(np.uint64)
        # Force a non-constant polynomial: make the leading coefficient odd
        # (non-zero) so degenerate all-equal hashing cannot occur.
        if independence > 1 and self.coeffs[-1] == 0:
            self.coeffs[-1] = np.uint64(1)

    def values(self, keys: np.ndarray) -> np.ndarray:
        """Evaluate the polynomial at ``keys`` (reduced mod p first)."""
        k = np.asarray(keys, dtype=np.uint64) % np.uint64(MERSENNE_P)
        return poly_eval(self.coeffs, k)


class SplitMix64Hash:
    """Keyed SplitMix64 PRF mapped into [0, 2^61 - 1).

    The fast path: a handful of shifts/multiplies per key instead of
    d field multiplications.
    """

    def __init__(self, seed: int, independence: int = 0) -> None:
        self.independence = independence  # informational only
        self._key = np.uint64(derive_seed(seed, 0x51F7) & 0xFFFFFFFFFFFFFFFF)

    def values(self, keys: np.ndarray) -> np.ndarray:
        """Hash ``keys`` with the keyed finalizer, reduced into [0, p)."""
        k = np.asarray(keys, dtype=np.uint64)
        return splitmix64(k ^ self._key) % np.uint64(MERSENNE_P)


def make_hash(seed: int, independence: int, family: str = "polynomial") -> HashFamily:
    """Factory: ``family`` is ``'polynomial'`` (provable) or ``'prf'`` (fast)."""
    if family == "polynomial":
        return PolynomialHash(seed, independence)
    if family == "prf":
        return SplitMix64Hash(seed, independence)
    raise ValueError(f"unknown hash family {family!r}; use 'polynomial' or 'prf'")

