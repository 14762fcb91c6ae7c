"""Component labels and part bookkeeping (Section 2.1 terminology).

Throughout the connectivity/MST algorithms every vertex carries a
*component label*; vertices with equal labels belong to the same current
component.  A **component part** is the set of a component's vertices
hosted by one machine — the unit that builds and ships one sketch
(Lemma 1 bounds the number of parts per machine by O~(n/k) w.h.p.).

:class:`PartIndex` materializes the (machine, label) grouping of a label
array: part ids, each part's machine and label, each vertex's part, and
the part -> component mapping.  All constructions are vectorized
``np.unique`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.partition import VertexPartition

__all__ = ["PartIndex", "initial_labels", "canonical_labels"]


def initial_labels(n: int) -> np.ndarray:
    """Phase-0 labels: every vertex is its own component (label = own id)."""
    return np.arange(n, dtype=np.int64)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel so each component's label is its minimum vertex id.

    Output-normalization only (used when comparing against the sequential
    reference); involves no simulated communication.
    """
    labels = np.asarray(labels, dtype=np.int64)
    uniq, inv = np.unique(labels, return_inverse=True)
    n = labels.size
    mins = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(mins, inv, np.arange(n, dtype=np.int64))
    return mins[inv]


@dataclass(frozen=True)
class PartIndex:
    """The part/component structure of one label configuration.

    Attributes
    ----------
    n_parts:
        Number of non-empty (machine, label) pairs.
    part_machine:
        ``int64[P]``; hosting machine of each part.
    part_label:
        ``int64[P]``; component label of each part.
    part_of_vertex:
        ``int64[n]``; the part containing each vertex.
    comp_labels:
        ``int64[C]``; sorted distinct labels (component universe).
    comp_of_part:
        ``int64[P]``; component index (into ``comp_labels``) of each part.
    comp_of_vertex:
        ``int64[n]``; component index of each vertex.
    """

    n_parts: int
    part_machine: np.ndarray
    part_label: np.ndarray
    part_of_vertex: np.ndarray
    comp_labels: np.ndarray
    comp_of_part: np.ndarray
    comp_of_vertex: np.ndarray

    @property
    def n_components(self) -> int:
        """Number of distinct components."""
        return int(self.comp_labels.size)

    @staticmethod
    def build(labels: np.ndarray, partition: VertexPartition) -> "PartIndex":
        """Group vertices into parts and components for the given labels."""
        labels = np.asarray(labels, dtype=np.int64)
        n = labels.size
        if partition.n != n:
            raise ValueError("labels and partition disagree on n")
        if n and (labels.min() < 0 or labels.max() >= n):
            raise ValueError("labels must be vertex ids in [0, n)")
        machines = partition.home
        # Part key: (machine, label) packed; labels are vertex ids in [0, n).
        key = machines * np.int64(n) + labels
        uniq_key, part_of_vertex = np.unique(key, return_inverse=True)
        part_machine = (uniq_key // np.int64(n)).astype(np.int64)
        part_label = (uniq_key % np.int64(n)).astype(np.int64)
        comp_labels, comp_of_part = np.unique(part_label, return_inverse=True)
        comp_of_vertex = comp_of_part[part_of_vertex]
        return PartIndex(
            n_parts=int(uniq_key.size),
            part_machine=part_machine,
            part_label=part_label,
            part_of_vertex=part_of_vertex.astype(np.int64),
            comp_labels=comp_labels,
            comp_of_part=comp_of_part.astype(np.int64),
            comp_of_vertex=comp_of_vertex.astype(np.int64),
        )

    def comp_index_of_labels(self, query_labels: np.ndarray) -> np.ndarray:
        """Component indices for label values (must exist in ``comp_labels``)."""
        q = np.asarray(query_labels, dtype=np.int64)
        idx = np.searchsorted(self.comp_labels, q)
        idx_clipped = np.clip(idx, 0, self.comp_labels.size - 1)
        if not np.all(self.comp_labels[idx_clipped] == q):
            raise KeyError("query label not present in current configuration")
        return idx_clipped
