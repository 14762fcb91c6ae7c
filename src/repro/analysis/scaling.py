"""Scaling-law fits for the round-complexity experiments.

The theorems assert asymptotics of the form ``rounds = O~(n / k^2)`` —
a power law times polylog factors.  The experiments fit measured round
counts against the swept parameter on log-log axes:

* :func:`fit_power_law` — plain ``y = c * x^a`` least squares; the fitted
  exponent ``a`` is the headline number (e.g. ~ -2 for rounds vs k).
* :func:`fit_power_law_stripped` — same after dividing out a known
  ``log2(x)^p`` factor, for claims where the polylog is explicit.
* :func:`ratio_table` — successive-doubling ratios, a fit-free sanity view
  (n/k^2 scaling means doubling k divides rounds by ~4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PowerLawFit", "fit_power_law", "fit_power_law_stripped", "ratio_table"]


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a log-log least-squares fit ``y ~ c * x^exponent``."""

    exponent: float
    constant: float
    r_squared: float


def fit_power_law(xs: np.ndarray, ys: np.ndarray) -> PowerLawFit:
    """Fit ``y = c * x^a`` by least squares in log-log space."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two matching (x, y) points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    a, b = np.polyfit(lx, ly, 1)
    pred = a * lx + b
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(exponent=float(a), constant=float(np.exp(b)), r_squared=r2)


def fit_power_law_stripped(xs: np.ndarray, ys: np.ndarray, polylog_power: float) -> PowerLawFit:
    """Fit after dividing ``y`` by ``log2(x)^polylog_power``.

    Use when the paper's bound makes the polylog explicit (e.g. O(log n)
    phases each of polylog cost): stripping it stabilizes the exponent on
    the modest ranges a simulation can sweep.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64) / np.log2(np.maximum(x, 2.0)) ** polylog_power
    return fit_power_law(x, y)


def ratio_table(xs: np.ndarray, ys: np.ndarray) -> list[tuple[float, float, float]]:
    """Successive ``(x, y, y_prev / y)`` rows for doubling sweeps."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    rows: list[tuple[float, float, float]] = []
    for i in range(x.size):
        ratio = float(y[i - 1] / y[i]) if i > 0 and y[i] > 0 else float("nan")
        rows.append((float(x[i]), float(y[i]), ratio))
    return rows
