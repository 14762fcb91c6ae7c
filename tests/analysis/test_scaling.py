"""Tests for power-law fitting utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.scaling import fit_power_law, fit_power_law_stripped, ratio_table


class TestFitPowerLaw:
    def test_recovers_exact_exponent(self):
        x = np.array([2.0, 4, 8, 16, 32])
        y = 3.0 * x**-2
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(-2.0)
        assert fit.constant == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_data_r2_below_one(self):
        rng = np.random.default_rng(1)
        x = np.array([2.0, 4, 8, 16, 32, 64])
        y = x**-1 * np.exp(rng.normal(0, 0.2, x.size))
        fit = fit_power_law(x, y)
        assert -1.5 < fit.exponent < -0.5
        assert fit.r_squared < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2]), np.array([0.0, 1]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0]), np.array([1.0]))


class TestStripped:
    def test_strips_polylog(self):
        x = np.array([64.0, 256, 1024, 4096])
        y = x * np.log2(x) ** 2  # n * log^2 n
        raw = fit_power_law(x, y)
        stripped = fit_power_law_stripped(x, y, polylog_power=2)
        assert stripped.exponent == pytest.approx(1.0, abs=1e-9)
        assert raw.exponent > stripped.exponent  # polylog inflates raw fit


class TestRatioTable:
    def test_doubling_ratios(self):
        x = np.array([2.0, 4, 8])
        y = np.array([100.0, 25, 6.25])  # 1/k^2 scaling
        rows = ratio_table(x, y)
        assert np.isnan(rows[0][2])
        assert rows[1][2] == pytest.approx(4.0)
        assert rows[2][2] == pytest.approx(4.0)
