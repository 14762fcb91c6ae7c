"""Tests for sketch-based outgoing edge selection (Section 2.4)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.cluster.cluster import KMachineCluster
from repro.cluster.shared_random import SharedRandomness
from repro.core.connectivity import connected_components_distributed
from repro.core.labels import PartIndex, initial_labels
from repro.core.mst import minimum_spanning_tree_distributed
from repro.core.outgoing import select_outgoing_edges
from repro.graphs import generators as gen
from repro.sketch.l0 import SketchContext


def make_run(g, k=4, seed=3):
    cl = KMachineCluster.create(g, k=k, seed=seed)
    shared = SharedRandomness(master_seed=seed, n=g.n, k=k)
    return cl, shared


class TestSelection:
    def test_initial_phase_samples_incident_edges(self):
        g = gen.gnm_random(80, 240, seed=1)
        cl, shared = make_run(g)
        labels = initial_labels(g.n)
        sel, _ = select_outgoing_edges(cl, shared, labels, phase=1)
        # Singleton components: a found edge must be incident to the vertex.
        idx = np.nonzero(sel.found)[0]
        assert idx.size > 0
        for ci in idx:
            comp_vertex = int(sel.parts.comp_labels[ci])
            u, v = int(sel.internal_vertex[ci]), int(sel.foreign_vertex[ci])
            assert comp_vertex == u
            assert g.has_edge(u, v)
            assert sel.neighbor_label[ci] == v  # phase-1 labels are vertex ids

    def test_grouped_labels_sample_only_cut_edges(self):
        g = gen.gnm_random(60, 200, seed=2)
        cl, shared = make_run(g)
        labels = (np.arange(g.n) % 2).astype(np.int64)  # two components 0 / 1
        sel, _ = select_outgoing_edges(cl, shared, labels, phase=1)
        for ci in np.nonzero(sel.found)[0]:
            u = int(sel.internal_vertex[ci])
            v = int(sel.foreign_vertex[ci])
            assert labels[u] == sel.parts.comp_labels[ci]
            assert labels[v] != labels[u]
            assert g.has_edge(u, v)
            assert sel.neighbor_label[ci] == labels[v]

    def test_isolated_component_reports_zero_sketch(self):
        g = gen.disjoint_union([gen.path_graph(5), gen.path_graph(5)])
        cl, shared = make_run(g)
        labels = np.concatenate([np.zeros(5, np.int64), np.full(5, 5, np.int64)])
        sel, nonzero = select_outgoing_edges(cl, shared, labels, phase=1)
        assert not nonzero().any()
        assert not sel.found.any()

    def test_charges_ledger(self):
        g = gen.gnm_random(50, 150, seed=3)
        cl, shared = make_run(g)
        before = cl.ledger.total_rounds
        select_outgoing_edges(cl, shared, initial_labels(g.n), phase=1)
        assert cl.ledger.total_rounds > before
        prefixes = {s.label.split(":", 1)[0] for s in cl.ledger.steps}
        assert "sketch-to-proxy" in prefixes
        assert "label-query" in prefixes
        assert "label-reply" in prefixes

    def test_want_weights(self):
        g = gen.with_unique_weights(gen.gnm_random(40, 120, seed=4), seed=4)
        cl, shared = make_run(g)
        sel, _ = select_outgoing_edges(
            cl, shared, initial_labels(g.n), phase=1, want_weights=True
        )
        for ci in np.nonzero(sel.found)[0]:
            u, v = int(sel.internal_vertex[ci]), int(sel.foreign_vertex[ci])
            eid = g.find_edge_id(u, v)
            assert sel.edge_weight[ci] == pytest.approx(float(g.weights[eid]))

    def test_weight_bound_restricts_sampling(self):
        # Bound below the minimum weight -> empty restricted sketches.
        g = gen.with_unique_weights(gen.gnm_random(40, 120, seed=5), seed=5)
        cl, shared = make_run(g)
        labels = initial_labels(g.n)
        parts = PartIndex.build(labels, cl.partition)
        bound = np.zeros(parts.n_components, dtype=np.float64)
        sel, nonzero = select_outgoing_edges(
            cl, shared, labels, phase=1, parts=parts, weight_bound_per_comp=bound
        )
        assert not nonzero().any()

    def test_weight_bound_shape_checked(self):
        g = gen.gnm_random(30, 60, seed=6)
        cl, shared = make_run(g)
        labels = initial_labels(g.n)
        parts = PartIndex.build(labels, cl.partition)
        with pytest.raises(ValueError):
            select_outgoing_edges(
                cl,
                shared,
                labels,
                phase=1,
                parts=parts,
                weight_bound_per_comp=np.ones(3),
            )

    def test_deterministic_given_seeds(self):
        g = gen.gnm_random(50, 150, seed=7)
        a_cl, a_sh = make_run(g, seed=9)
        b_cl, b_sh = make_run(g, seed=9)
        sa, _ = select_outgoing_edges(a_cl, a_sh, initial_labels(g.n), phase=1)
        sb, _ = select_outgoing_edges(b_cl, b_sh, initial_labels(g.n), phase=1)
        assert np.array_equal(sa.slot, sb.slot)
        assert np.array_equal(sa.comp_proxy, sb.comp_proxy)


class TestZeroTestOnDemand:
    """The zero test runs only where a phase reads its answer."""

    @staticmethod
    def _counting():
        return mock.patch.object(
            SketchContext, "nonzero_groups", autospec=True, side_effect=SketchContext.nonzero_groups
        )

    def test_connectivity_runs_it_once_per_phase_that_sampled_nothing(self):
        # One repetition makes sampling fail often enough to retry phases.
        g = gen.gnm_random(300, 900, seed=1)
        cl = KMachineCluster.create(g, k=4, seed=1)
        with self._counting() as zero_test:
            res = connected_components_distributed(cl, seed=1, repetitions=1)
        empty = sum(s.edges_sampled == 0 for s in res.phase_stats)
        assert res.converged and empty >= 2  # retries plus the final phase
        assert zero_test.call_count == empty

    def test_mst_runs_it_once_per_elimination_call(self):
        g = gen.with_unique_weights(gen.gnm_random(200, 600, seed=2), seed=2)
        cl = KMachineCluster.create(g, k=4, seed=2)
        with self._counting() as zero_test:
            res = minimum_spanning_tree_distributed(cl, seed=2)
        assert zero_test.call_count == sum(s.elimination_iterations for s in res.phase_stats)
