"""Tests for sketch-based outgoing edge selection (Section 2.4)."""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.cluster.cluster import KMachineCluster
from repro.cluster.shared_random import SharedRandomness
from repro.core.connectivity import connected_components_distributed
from repro.core.labels import PartIndex, initial_labels
from repro.core.mst import minimum_spanning_tree_distributed
from repro.core.outgoing import _edge_weights, cut_incidences, cut_view, select_outgoing_edges
from repro.graphs import generators as gen
from repro.runtime import SketchConfig
from repro.sketch import l0
from repro.sketch.l0 import SketchContext
from repro.util.bits import bits_for_id


def make_run(g, k=4, seed=3):
    cl = KMachineCluster.create(g, k=k, seed=seed)
    shared = SharedRandomness(master_seed=seed, n=g.n, k=k)
    return cl, shared


def select(cl, shared, labels, **kw):
    """One phase-1 step on ``labels``; returns (parts, selection, zero test)."""
    parts = PartIndex.build(labels, cl.partition)
    weighted = kw.get("weight_bound_per_comp") is not None
    sel, nonzero, _ = select_outgoing_edges(
        cl,
        shared,
        labels,
        phase=1,
        sketch=SketchConfig(),
        parts=parts,
        live=cut_view(cl, parts, cut_incidences(cl, labels), weighted=weighted),
        **kw,
    )
    return parts, sel, nonzero


class TestSelection:
    def test_initial_phase_samples_incident_edges(self):
        g = gen.gnm_random(80, 240, seed=1)
        cl, shared = make_run(g)
        labels = initial_labels(g.n)
        parts, sel, _ = select(cl, shared, labels)
        # Singleton components: a found edge must be incident to the vertex.
        idx = np.nonzero(sel.found)[0]
        assert idx.size > 0
        for ci in idx:
            comp_vertex = int(parts.comp_labels[ci])
            u, v = int(sel.internal_vertex[ci]), int(sel.foreign_vertex[ci])
            assert comp_vertex == u
            g.find_edge_id(u, v)  # KeyError if not an edge
            assert sel.neighbor_label[ci] == v  # phase-1 labels are vertex ids

    def test_grouped_labels_sample_only_cut_edges(self):
        g = gen.gnm_random(60, 200, seed=2)
        cl, shared = make_run(g)
        labels = (np.arange(g.n) % 2).astype(np.int64)  # two components 0 / 1
        parts, sel, _ = select(cl, shared, labels)
        for ci in np.nonzero(sel.found)[0]:
            u = int(sel.internal_vertex[ci])
            v = int(sel.foreign_vertex[ci])
            assert labels[u] == parts.comp_labels[ci]
            assert labels[v] != labels[u]
            g.find_edge_id(u, v)  # KeyError if not an edge
            assert sel.neighbor_label[ci] == labels[v]

    def test_isolated_component_reports_zero_sketch(self):
        g = gen.disjoint_union([gen.path_graph(5), gen.path_graph(5)])
        cl, shared = make_run(g)
        labels = np.concatenate([np.zeros(5, np.int64), np.full(5, 5, np.int64)])
        _, sel, nonzero = select(cl, shared, labels)
        assert not nonzero.any()
        assert not sel.found.any()

    def test_charges_ledger(self):
        g = gen.gnm_random(50, 150, seed=3)
        cl, shared = make_run(g)
        before = cl.ledger.total_rounds
        select(cl, shared, initial_labels(g.n))
        assert cl.ledger.total_rounds > before
        prefixes = {s.label.split(":", 1)[0] for s in cl.ledger.steps}
        assert "sketch-to-proxy" in prefixes
        assert "label-query" in prefixes
        assert "label-reply" in prefixes

    def test_infinite_bound_adds_only_the_weights(self):
        # A +inf bound keeps every incidence, so the step samples exactly
        # what the unbounded one does; a bound also makes each label reply
        # carry the sampled edge's 64-bit weight.
        g = gen.with_unique_weights(gen.gnm_random(40, 120, seed=4), seed=4)
        labels = initial_labels(g.n)
        runs = []
        for bound in (None, np.full(g.n, np.inf)):
            cl, shared = make_run(g)
            _, sel, _ = select(cl, shared, labels, weight_bound_per_comp=bound)
            [reply] = [s for s in cl.ledger.steps if s.label.startswith("label-reply:")]
            runs.append((sel, reply.total_bits))
        (plain, plain_bits), (bounded, bounded_bits) = runs
        for name in ("comp_proxy", "found", "internal_vertex", "foreign_vertex", "neighbor_label"):
            assert np.array_equal(getattr(plain, name), getattr(bounded, name)), name
        assert np.isnan(plain.edge_weight).all()
        idx = np.nonzero(bounded.found)[0]
        assert idx.size > 0 and np.isnan(bounded.edge_weight[~bounded.found]).all()
        ends = zip(bounded.internal_vertex[idx], bounded.foreign_vertex[idx])
        eids = [g.find_edge_id(int(u), int(v)) for u, v in ends]
        assert np.array_equal(bounded.edge_weight[idx], g.weights[eids])
        b = bits_for_id(g.n)
        assert bounded_bits * b == plain_bits * (b + 64)

    def test_weight_lookup_by_slot(self):
        g = gen.with_unique_weights(gen.gnm_random(40, 120, seed=8), seed=8)
        cl, _ = make_run(g)
        slots = cl.inc_slot[: g.m].astype(np.int64)
        assert np.array_equal(_edge_weights(cl, slots[::-1]), g.weights[::-1])
        edges = set(zip(g.edges_u.tolist(), g.edges_v.tolist()))
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in edges]
        for u, v in (pairs[0], pairs[-1]):
            with pytest.raises(KeyError, match="slot"):
                _edge_weights(cl, np.array([u * g.n + v], dtype=np.int64))

    def test_weight_bound_restricts_sampling(self):
        # Bound below the minimum weight -> empty restricted sketches.
        g = gen.with_unique_weights(gen.gnm_random(40, 120, seed=5), seed=5)
        cl, shared = make_run(g)
        bound = np.zeros(g.n, dtype=np.float64)  # one singleton component per vertex
        _, _, nonzero = select(cl, shared, initial_labels(g.n), weight_bound_per_comp=bound)
        assert not nonzero.any()

    def test_weight_bound_shape_checked(self):
        g = gen.gnm_random(30, 60, seed=6)
        cl, shared = make_run(g)
        with pytest.raises(ValueError):
            select(cl, shared, initial_labels(g.n), weight_bound_per_comp=np.ones(3))

    def test_deterministic_given_seeds(self):
        g = gen.gnm_random(50, 150, seed=7)
        a_cl, a_sh = make_run(g, seed=9)
        b_cl, b_sh = make_run(g, seed=9)
        _, sa, _ = select(a_cl, a_sh, initial_labels(g.n))
        _, sb, _ = select(b_cl, b_sh, initial_labels(g.n))
        assert np.array_equal(sa.internal_vertex, sb.internal_vertex)
        assert np.array_equal(sa.foreign_vertex, sb.foreign_vertex)
        assert np.array_equal(sa.comp_proxy, sb.comp_proxy)


def test_narrowed_view_equals_filtering_the_whole_cut_index():
    # MST's elimination calls each narrow the view the call before kept.
    # Under per-component bounds that never rise, with finished components
    # at -inf, on tied and negative weights, every narrowed view must hold
    # the ids, components and weights that filtering the phase's whole cut
    # index by the current bound gives, in ascending id order.
    rng = np.random.default_rng(12)
    g = gen.gnm_random(150, 600, seed=12)
    g = g.with_weights(rng.integers(-4, 5, size=g.m).astype(np.float64))
    cl, _ = make_run(g)
    labels = (np.arange(g.n, dtype=np.int64) // 15) * 15  # 10 components
    parts = PartIndex.build(labels, cl.partition)
    cut = cut_incidences(cl, labels)
    whole_comp = parts.comp_of_vertex[cl.inc_owner[cut]]
    whole_weight = cl.inc_weight_of(cut)
    assert np.unique(whole_weight).size < whole_weight.size and (whole_weight < 0).any()
    with pytest.raises(ValueError, match="weights"):
        cut_view(cl, parts, cut).narrow(np.zeros(parts.n_components))
    view = cut_view(cl, parts, cut, weighted=True)
    bound = np.full(parts.n_components, np.inf)
    sizes = []
    for _ in range(6):
        view = view.narrow(bound)
        keep = whole_weight < bound[whole_comp]
        assert np.array_equal(view.ids, cut[keep])
        assert np.array_equal(view.comp, whole_comp[keep])
        assert np.array_equal(view.weight, whole_weight[keep])
        sizes.append(view.ids.size)
        # Half the components adopt a kept weight as their bound, so tied
        # weights stay kept only while strictly below it; a few finish.
        for ci in np.flatnonzero(rng.random(parts.n_components) < 0.5):
            kept = view.weight[view.comp == ci]
            bound[ci] = rng.choice(kept) if kept.size else -np.inf
        bound[rng.random(parts.n_components) < 0.1] = -np.inf
    assert np.all(np.diff(view.ids) > 0)
    assert len(set(sizes)) > 3 and sizes[-1] > 0


@pytest.mark.parametrize("repetitions", [6, 1])
@pytest.mark.parametrize("algorithm", ["connectivity", "mst"])
def test_zero_test_fingerprints_only_the_groups_that_sampled_nothing(algorithm, repetitions):
    # Every selection step answers its zero test in the sampling pass.  A
    # group with a verified sample reads nonzero unfingerprinted, so the
    # first level-0 scatter of a step holds exactly the incidences of the
    # groups that sampled nothing, into one row per such group, and a step
    # that sampled every live group scatters nothing.  With one repetition
    # some groups sample nothing.
    g = gen.with_unique_weights(gen.gnm_random(200, 600, seed=2), seed=2)
    cl = KMachineCluster.create(g, k=4, seed=2)
    real_sample, real_scatter = SketchContext.sample_groups, l0._modp_scatter_sum
    steps = []

    def sample_groups(self, group_idx, n_groups):
        step = SimpleNamespace(group_idx=group_idx, scatters=[])
        steps.append(step)
        step.sample = real_sample(self, group_idx, n_groups)
        return step.sample

    def scatter(values, signs, idx, n_out):
        steps[-1].scatters.append((idx, n_out))
        return real_scatter(values, signs, idx, n_out)

    sketch = SketchConfig(repetitions=repetitions)
    with (
        mock.patch.object(SketchContext, "sample_groups", sample_groups),
        mock.patch.object(l0, "_modp_scatter_sum", scatter),
    ):
        if algorithm == "mst":
            res = minimum_spanning_tree_distributed(cl, seed=2, sketch=sketch)
            assert res.certified
            assert len(steps) == sum(s.elimination_iterations for s in res.phase_stats)
        else:
            res = connected_components_distributed(cl, seed=2, sketch=sketch)
            assert res.converged and len(steps) == len(res.phase_stats)
    scattered = all_sampled = 0
    for step in steps:
        undecided = step.group_idx[~step.sample.found[step.group_idx]]
        if undecided.size:
            # One accumulator row per undecided group, in group order.
            groups = np.unique(undecided)
            idx, n_out = step.scatters[0]
            assert n_out == groups.size
            assert np.array_equal(groups[idx], undecided)
            scattered += undecided.size
        else:
            assert step.scatters == []
            all_sampled += 1
    assert all_sampled > 0
    if repetitions == 1:
        assert scattered > 0
