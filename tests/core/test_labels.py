"""Tests for component labels and part indexing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.partition import VertexPartition, random_vertex_partition
from repro.core.labels import PartIndex, canonical_labels, initial_labels


class TestLabels:
    def test_initial_labels(self):
        assert np.array_equal(initial_labels(4), [0, 1, 2, 3])

    def test_canonical_labels_min_id(self):
        labels = np.array([9, 9, 3, 3, 9])
        assert np.array_equal(canonical_labels(labels), [0, 0, 2, 2, 0])

    def test_canonical_idempotent(self):
        labels = np.array([5, 5, 1, 1])
        once = canonical_labels(labels)
        assert np.array_equal(once, canonical_labels(once))


class TestPartIndex:
    def test_parts_are_machine_label_pairs(self):
        home = np.array([0, 0, 1, 1, 1])
        p = VertexPartition(k=2, home=home, seed=0)
        labels = np.array([2, 2, 2, 3, 3])
        idx = PartIndex.build(labels, p)
        # Parts: (0,2), (1,2), (1,3) -> 3 parts, 2 components.
        assert idx.n_parts == 3
        assert idx.n_components == 2
        assert sorted(zip(idx.part_machine.tolist(), idx.part_label.tolist())) == [
            (0, 2),
            (1, 2),
            (1, 3),
        ]

    def test_rejects_out_of_range_labels(self):
        home = np.zeros(5, dtype=np.int64)
        p = VertexPartition(k=2, home=home, seed=0)
        with pytest.raises(ValueError, match="vertex ids"):
            PartIndex.build(np.array([0, 0, 0, 0, 7]), p)

    def test_part_of_vertex_consistent(self):
        part = random_vertex_partition(200, 4, seed=1)
        labels = np.arange(200) % 13
        idx = PartIndex.build(labels, part)
        for v in range(0, 200, 17):
            pid = idx.part_of_vertex[v]
            assert idx.part_machine[pid] == part.home[v]
            assert idx.part_label[pid] == labels[v]

    def test_comp_of_vertex_matches_labels(self):
        part = random_vertex_partition(100, 4, seed=2)
        labels = np.arange(100) % 7
        idx = PartIndex.build(labels, part)
        assert np.array_equal(idx.comp_labels[idx.comp_of_vertex], labels)

    def test_comp_index_of_labels(self):
        part = random_vertex_partition(50, 2, seed=3)
        labels = np.arange(50) % 5
        idx = PartIndex.build(labels, part)
        q = idx.comp_index_of_labels(np.array([4, 0]))
        assert np.array_equal(idx.comp_labels[q], [4, 0])

    def test_comp_index_of_unknown_label_raises(self):
        part = random_vertex_partition(50, 2, seed=3)
        idx = PartIndex.build(np.zeros(50, dtype=np.int64), part)
        with pytest.raises(KeyError):
            idx.comp_index_of_labels(np.array([42]))

    def test_parts_per_machine_bound(self):
        # Each machine hosts at most min(C, its vertex count) parts.
        part = random_vertex_partition(300, 8, seed=4)
        labels = np.arange(300) % 11
        idx = PartIndex.build(labels, part)
        ppm = np.bincount(idx.part_machine, minlength=8)
        assert ppm.sum() == idx.n_parts
        assert ppm.max() <= 11

    def test_mismatched_sizes_rejected(self):
        part = random_vertex_partition(10, 2, seed=5)
        with pytest.raises(ValueError):
            PartIndex.build(np.zeros(9, dtype=np.int64), part)
