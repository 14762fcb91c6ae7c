"""Vectorized arithmetic in the Mersenne-prime field F_p, p = 2^61 - 1.

The l0-sampling sketches (Lemma 2) need two randomized ingredients:

* a Theta(log n)-wise independent hash assigning each edge slot to
  geometric sampling levels, and
* a polynomial fingerprint ``sum sign * r^id mod p`` that certifies
  one-sparse recovery and detects the zero vector.

Both require field arithmetic on 61-bit values under NumPy, which has no
128-bit integers.  We implement multiplication via 32-bit limb
decomposition and the Mersenne reduction ``2^61 === 1 (mod p)``; every
intermediate fits in uint64.  The field size makes fingerprint false
positives vanishingly rare: a nonzero incidence polynomial of degree
< n^2 <= 2^40 evaluated at a random point is zero with probability
<= 2^40 / 2^61 < 5e-7 (cf. the w.h.p. claims of Lemma 2).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MERSENNE_P",
    "addmod",
    "submod",
    "mulmod",
    "powmod",
    "poly_eval",
]

#: p = 2^61 - 1, the 9th Mersenne prime.
MERSENNE_P = (1 << 61) - 1

_P = np.uint64(MERSENNE_P)
_MASK61 = np.uint64(MERSENNE_P)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S61 = np.uint64(61)
_S29 = np.uint64(29)
_EIGHT = np.uint64(8)
_MASK29 = np.uint64((1 << 29) - 1)


def _fold61(x: np.ndarray) -> np.ndarray:
    """Reduce ``x < 2^64`` modulo p using 2^61 === 1 folding (twice).

    The final conditional subtraction is branch-free (subtract p exactly
    where x >= p) so 0-d inputs never trigger scalar underflow warnings.

    After the first fold produces a fresh array, the remaining steps
    update it in place: NumPy reuses chained temporaries, but every
    *simultaneously live* temporary of a large operand is a fresh
    allocation, and the allocator round-trips those pages to the kernel —
    on the hot path that costs more than the arithmetic (DESIGN.md §9).
    """
    x = (x >> _S61) + (x & _MASK61)  # fresh result; in-place below is safe
    high = x >> _S61
    x &= _MASK61
    x += high
    x -= (x >= _P).astype(np.uint64) * _P
    return x


def addmod(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
    """``(a + b) mod p`` for inputs already reduced mod p."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return _fold61(a + b)


def submod(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
    """``(a - b) mod p`` for inputs already reduced mod p."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return _fold61(a + (_P - np.asarray(b, dtype=np.uint64)))


def mulmod(a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
    """``(a * b) mod p`` for ``a, b < p`` (vectorized, uint64-safe).

    Decompose ``a = a1*2^32 + a0``, ``b = b1*2^32 + b0`` (a1, b1 < 2^29):

    * ``a1*b1*2^64  === a1*b1*8`` (since 2^61 === 1, 2^64 === 8);
    * ``mid*2^32`` with ``mid = a1*b0 + a0*b1 < 2^62``: split mid at bit 29,
      ``mid = m1*2^29 + m0``, so ``mid*2^32 = m1*2^61 + m0*2^32 ===
      m1 + m0*2^32``;
    * ``a0*b0 < 2^64`` reduced by folding.

    The partials sum to ``< 2^61 + 2^62 + (2^61 + 8) < 2^64``, so a single
    final fold suffices — no per-partial reduction.  The partials are
    accumulated into one running total with in-place adds, retiring each
    temporary before the next is built: simultaneously live large
    temporaries each cost a fresh kernel-round-trip allocation, which on
    this path outweighs the arithmetic itself (DESIGN.md §9).
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a0 = a & _MASK32
    a1 = a >> _S32
    b0 = b & _MASK32
    b1 = b >> _S32

    lo = a0 * b0  # < 2^64 (wraps only at exactly 2^64; max is (2^32-1)^2)
    total = (lo >> _S61) + (lo & _MASK61)  # part_lo < 2^61 + 8; fresh array
    del lo
    total += (a1 * b1) * _EIGHT  # part_hi < 2^61 (2^64 === 8)

    mid = a1 * b0  # accumulate mid = a1*b0 + a0*b1 < 2^62 in place
    mid += a0 * b1
    del a0, a1, b0, b1
    total += mid >> _S29  # m1 < 2^33
    mid &= _MASK29
    mid <<= _S32
    total += mid  # m0 * 2^32 < 2^61; total < 2^64 overall
    del mid
    return _fold61(total)


def powmod(base: np.ndarray | int, exp: np.ndarray | int, max_exp_bits: int = 61) -> np.ndarray:
    """``base ** exp mod p`` elementwise (square-and-multiply).

    ``max_exp_bits`` caps the number of squaring iterations; callers that
    know their exponents are small (edge slot ids < n^2) pass
    ``2 * ceil(log2 n)`` to halve the work — the dominant cost of sketch
    construction.
    """
    b = np.asarray(base, dtype=np.uint64)
    e = np.asarray(exp, dtype=np.uint64)
    b, e = np.broadcast_arrays(b, e)
    result = np.ones(b.shape, dtype=np.uint64)
    b = b.copy()
    e = e.copy()
    for _ in range(max_exp_bits):
        if not e.any():
            break
        odd = (e & np.uint64(1)).astype(bool)
        if odd.any():
            result[odd] = mulmod(result[odd], b[odd])
        e >>= np.uint64(1)
        if e.any():
            b = mulmod(b, b)
    return result


def poly_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate ``sum coeffs[i] * x^i mod p`` at each ``x`` (Horner).

    ``coeffs`` is 1-D (degree+1 values, ``coeffs[-1]`` the leading one);
    cost is ``len(coeffs)`` vectorized mulmods over ``x``.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    x = np.asarray(x, dtype=np.uint64)
    if coeffs.size == 0:
        return np.zeros(x.shape, dtype=np.uint64)
    acc = np.full(x.shape, coeffs[-1], dtype=np.uint64)
    for c in coeffs[-2::-1]:
        acc = addmod(mulmod(acc, x), c)
    return acc

