"""Tests for repro.cluster.topology."""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterTopology


class TestClusterTopology:
    def test_for_problem(self):
        t = ClusterTopology.for_problem(8, 1024)
        assert t.k == 8
        assert t.bandwidth_bits == 64 * 10 * 10

    def test_rejects_k1(self):
        with pytest.raises(ValueError, match="k >= 2"):
            ClusterTopology(k=1, bandwidth_bits=10)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            ClusterTopology(k=2, bandwidth_bits=0)

    def test_bandwidth_multiplier(self):
        a = ClusterTopology.for_problem(4, 1024, bandwidth_multiplier=1)
        b = ClusterTopology.for_problem(4, 1024, bandwidth_multiplier=2)
        assert b.bandwidth_bits == 2 * a.bandwidth_bits
