"""Tests for repro.graphs.unionfind, including hypothesis invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.unionfind import UnionFind


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(5)
        assert uf.n_components == 5
        assert not uf.connected(0, 1)

    def test_union_connects(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.connected(0, 1)
        assert uf.n_components == 3

    def test_union_idempotent(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.n_components == 3

    def test_transitivity(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.connected(0, 2)

    def test_labels_consistent(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(2, 3)
        lab = uf.labels()
        assert lab[0] == lab[1]
        assert lab[2] == lab[3]
        assert lab[0] != lab[2]

    def test_label_counts_give_component_sizes(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        _, sizes = np.unique(uf.labels(), return_counts=True)
        assert sorted(sizes.tolist()) == [1, 1, 3]

    def test_empty(self):
        uf = UnionFind(0)
        assert uf.n_components == 0
        assert uf.labels().size == 0


@given(
    n=st.integers(min_value=1, max_value=40),
    ops=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
)
@settings(max_examples=60, deadline=None)
def test_property_matches_naive_partition(n, ops):
    """Union-find agrees with a naive partition-refinement oracle."""
    uf = UnionFind(n)
    naive = [{i} for i in range(n)]
    where = list(range(n))
    for a, b in ops:
        a, b = a % n, b % n
        uf.union(a, b)
        if where[a] != where[b]:
            src, dst = where[b], where[a]
            for x in naive[src]:
                where[x] = dst
            naive[dst] |= naive[src]
            naive[src] = set()
    lab = uf.labels()
    for i in range(n):
        for j in range(i + 1, n):
            assert (lab[i] == lab[j]) == (where[i] == where[j])
    assert uf.n_components == len({w for w in where})
    _ = np  # numpy imported for dtype parity with the module under test
