"""Shared fixtures and path setup for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without an installed package (src layout).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.cluster import KMachineCluster  # noqa: E402
from repro.graphs import generators  # noqa: E402


@pytest.fixture
def small_connected_graph():
    """A modest connected G(n, m) used across integration tests."""
    return generators.gnm_random(120, 420, seed=17)


@pytest.fixture
def small_disconnected_graph():
    """A graph with exactly five components."""
    return generators.planted_components(150, 5, seed=23)


@pytest.fixture
def small_weighted_graph():
    """A connected graph with unique weights (unique MST)."""
    return generators.with_unique_weights(generators.gnm_random(100, 320, seed=31), seed=31)


@pytest.fixture
def cluster8(small_connected_graph):
    """An 8-machine cluster over the small connected graph."""
    return KMachineCluster.create(small_connected_graph, k=8, seed=7)


@pytest.fixture(scope="session")
def rank_order_depths():
    """The reference DRR depth rule, as a function of a forest.

    It visits components in decreasing (rank, label) order, which sees
    every parent before its children.
    """

    def depths(forest):
        depth = np.zeros(forest.n_components, dtype=np.int64)
        for ci in np.lexsort((forest.comp_labels, forest.ranks))[::-1]:
            p = forest.parent[ci]
            if p >= 0:
                depth[ci] = depth[p] + 1
        return depth

    return depths
