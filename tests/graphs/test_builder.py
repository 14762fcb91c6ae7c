"""Tests for repro.graphs.builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.builder import GraphBuilder


class TestGraphBuilder:
    def test_single_edges(self):
        b = GraphBuilder(4)
        b.add_edges(np.array([0]), np.array([1]))
        b.add_edges(np.array([2]), np.array([3]))
        g = b.build()
        assert g.m == 2

    def test_batch_and_dedup(self):
        b = GraphBuilder(3)
        b.add_edges(np.array([0, 1, 1]), np.array([1, 0, 2]))
        g = b.build()
        assert g.m == 2  # (0,1) deduped

    def test_weighted_requires_weights(self):
        b = GraphBuilder(3, weighted=True)
        with pytest.raises(ValueError, match="weights required"):
            b.add_edges(np.array([0]), np.array([1]))

    def test_unweighted_rejects_weights(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError):
            b.add_edges(np.array([0]), np.array([1]), np.array([1.0]))

    def test_weighted_build(self):
        b = GraphBuilder(3, weighted=True)
        b.add_edges(np.array([0]), np.array([1]), np.array([4.5]))
        g = b.build()
        assert g.weighted and g.weights[0] == 4.5

    def test_add_path(self):
        b = GraphBuilder(5)
        b.add_path(np.array([0, 1, 2, 3, 4]))
        g = b.build()
        assert g.m == 4
        assert g.degree(0) == 1 and g.degree(2) == 2

    def test_empty_build(self):
        g = GraphBuilder(3).build()
        assert g.n == 3 and g.m == 0

    def test_mismatched_shapes(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError):
            b.add_edges(np.array([0, 1]), np.array([1]))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            GraphBuilder(0)
