"""Tests for RVP/REP partitioning: balance, determinism, shared-hash property."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.partition import (
    VertexPartition,
    random_edge_partition,
    random_vertex_partition,
)


class TestRVP:
    def test_covers_all_machines(self):
        p = random_vertex_partition(10_000, 8, seed=1)
        assert np.unique(p.home).size == 8

    def test_balance_whp(self):
        # RVP gives Theta(n/k) vertices per machine w.h.p. (Section 1.1).
        p = random_vertex_partition(80_000, 16, seed=2)
        counts = p.counts()
        mean = 80_000 / 16
        assert counts.min() > 0.9 * mean
        assert counts.max() < 1.1 * mean

    def test_deterministic_shared_hash(self):
        # Two machines computing the partition independently agree — the
        # "if a machine knows a vertex ID it knows its home" property.
        a = random_vertex_partition(1000, 8, seed=3)
        b = random_vertex_partition(1000, 8, seed=3)
        assert np.array_equal(a.home, b.home)

    def test_counts_partition_the_vertices(self):
        p = random_vertex_partition(500, 5, seed=5)
        assert p.home.min() >= 0 and p.home.max() < 5
        assert p.counts().sum() == 500

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            random_vertex_partition(10, 1, seed=0)

    def test_seed_changes_partition(self):
        a = random_vertex_partition(1000, 8, seed=1)
        b = random_vertex_partition(1000, 8, seed=2)
        assert not np.array_equal(a.home, b.home)


class TestREP:
    def test_range_and_balance(self):
        em = random_edge_partition(40_000, 8, seed=1)
        assert em.min() >= 0 and em.max() < 8
        counts = np.bincount(em, minlength=8)
        assert counts.min() > 40_000 / 8 * 0.9

    def test_deterministic(self):
        assert np.array_equal(
            random_edge_partition(100, 4, seed=7), random_edge_partition(100, 4, seed=7)
        )


class TestVertexPartitionManual:
    def test_adversarial_partition_usable(self):
        # Tests can construct worst-case partitions directly.
        home = np.zeros(10, dtype=np.int64)
        home[5:] = 1
        p = VertexPartition(k=2, home=home, seed=0)
        assert p.counts().tolist() == [5, 5]
        assert p.n == 10
