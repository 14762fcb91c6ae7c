"""Tests for DRR forests: structure, depth (Lemma 6), merging (Lemma 5)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.partition import PARTITION_SCHEMES, PartitionConfig, build_partition
from repro.cluster.shared_random import SharedRandomness
from repro.core.drr import build_drr_forest, merge_forest
from repro.core.labels import PartIndex, canonical_labels, initial_labels
from repro.core.outgoing import OutgoingSelection
from repro.core.proxy import proxy_of_labels
from repro.graphs import generators as gen
from repro.util.bits import bits_for_id
from repro.util.rng import SeedStream


def vertex_merge_forest(cluster, shared, labels, forest, phase, first_iteration=1):
    """Reference merge at vertex granularity: every iteration rebuilds the
    part structure of the current labels, charges one message per part of
    each leaf component, and relabels the leaves' vertices.

    Returns ``(labels, iterations, rounds)``.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    n, k = cluster.n, cluster.k
    c = forest.n_components
    children = forest.n_children.copy()
    merged = np.zeros(c, dtype=bool)
    label_bits = bits_for_id(max(n, 2))
    iteration = first_iteration
    total_rounds = 0
    while True:
        leaves = np.nonzero((~merged) & (forest.parent >= 0) & (children == 0))[0]
        if leaves.size == 0:
            break
        stream = shared.proxy_stream(phase, iteration)
        cur_parts = PartIndex.build(labels, cluster.partition)
        comp_proxy = proxy_of_labels(stream, cur_parts.comp_labels, k)
        leaf_comp_idx = cur_parts.comp_index_of_labels(forest.comp_labels[leaves])
        part_sel = np.nonzero(np.isin(cur_parts.comp_of_part, leaf_comp_idx))[0]
        step = CommStep(cluster.ledger, f"merge-relabel:phase-{phase}-it-{iteration}")
        step.add(
            comp_proxy[cur_parts.comp_of_part[part_sel]],
            cur_parts.part_machine[part_sel],
            label_bits,
        )
        total_rounds += step.deliver()
        old = forest.comp_labels[leaves]
        new = forest.parent_label[leaves]
        order = np.argsort(old)
        old_sorted, new_sorted = old[order], new[order]
        pos_c = np.clip(np.searchsorted(old_sorted, labels), 0, old_sorted.size - 1)
        hit = old_sorted[pos_c] == labels
        labels[hit] = new_sorted[pos_c[hit]]
        merged[leaves] = True
        np.subtract.at(children, forest.parent[leaves], 1)
        iteration += 1
    return labels, iteration - first_iteration, total_rounds


def ring_selection(n, k=4, seed=1):
    """Every singleton component i samples the edge to (i+1) mod n."""
    g = gen.cycle_graph(n)
    cl = KMachineCluster.create(g, k=k, seed=seed)
    labels = initial_labels(n)
    parts = PartIndex.build(labels, cl.partition)
    c = parts.n_components
    nxt = (parts.comp_labels + 1) % n
    sel = OutgoingSelection(
        comp_proxy=np.zeros(c, dtype=np.int64),
        found=np.ones(c, dtype=bool),
        internal_vertex=parts.comp_labels.copy(),
        foreign_vertex=nxt.copy(),
        neighbor_label=nxt.copy(),
        edge_weight=np.full(c, np.nan),
    )
    return cl, labels, parts, sel


class TestForestStructure:
    def test_parents_have_higher_rank(self):
        cl, labels, parts, sel = ring_selection(64)
        forest = build_drr_forest(parts, sel, SeedStream(7))
        for ci in range(forest.n_components):
            p = forest.parent[ci]
            if p >= 0:
                assert forest.ranks[p] > forest.ranks[ci] or (
                    forest.ranks[p] == forest.ranks[ci]
                    and forest.comp_labels[p] > forest.comp_labels[ci]
                )

    def test_acyclic_and_rooted(self):
        cl, labels, parts, sel = ring_selection(128)
        forest = build_drr_forest(parts, sel, SeedStream(8))
        roots = np.nonzero(forest.parent < 0)[0]
        assert roots.size >= 1
        # Follow parents: must reach a root within C hops (no cycles).
        for ci in range(forest.n_components):
            cur, hops = ci, 0
            while forest.parent[cur] >= 0:
                cur = int(forest.parent[cur])
                hops += 1
                assert hops <= forest.n_components
            assert cur in roots

    def test_depth_consistent_with_parents(self):
        cl, labels, parts, sel = ring_selection(100)
        forest = build_drr_forest(parts, sel, SeedStream(9))
        for ci in range(forest.n_components):
            p = forest.parent[ci]
            if p >= 0:
                assert forest.depth[ci] == forest.depth[p] + 1
            else:
                assert forest.depth[ci] == 0

    def test_no_edges_all_roots(self):
        cl, labels, parts, _ = ring_selection(10)
        c = parts.n_components
        sel = OutgoingSelection(
            comp_proxy=np.zeros(c, dtype=np.int64),
            found=np.zeros(c, dtype=bool),
            internal_vertex=np.full(c, -1, dtype=np.int64),
            foreign_vertex=np.full(c, -1, dtype=np.int64),
            neighbor_label=np.full(c, -1, dtype=np.int64),
            edge_weight=np.full(c, np.nan),
        )
        forest = build_drr_forest(parts, sel, SeedStream(10))
        assert (forest.parent < 0).all()
        assert forest.max_depth == 0


class TestLemma6Depth:
    def test_depth_logarithmic(self):
        # Lemma 6: DRR depth is O(log n) w.h.p.; check over several seeds
        # at n = 1024: depth must stay well below sqrt(n) and scale ~ log n.
        n = 1024
        worst = 0
        for seed in range(10):
            cl, labels, parts, sel = ring_selection(n, seed=seed)
            forest = build_drr_forest(parts, sel, SeedStream(100 + seed))
            worst = max(worst, forest.max_depth)
        assert worst <= 6 * np.log(n + 1)  # the Lemma-6/appendix constant

    def test_expected_depth_close_to_ln_n(self):
        # Appendix: E[path length] <= log(n+1); average over seeds.
        n = 512
        depths = []
        for seed in range(20):
            cl, labels, parts, sel = ring_selection(n, seed=seed)
            forest = build_drr_forest(parts, sel, SeedStream(200 + seed))
            depths.append(forest.max_depth)
        assert np.mean(depths) <= 3.0 * np.log(n + 1)


class TestPointerJumpingDepths:
    def test_matches_rank_order_loop_on_a_large_forest(self, rank_order_depths):
        cl, labels, parts, sel = ring_selection(12_000, seed=5)
        forest = build_drr_forest(parts, sel, SeedStream(14))
        assert forest.n_components >= 10_000
        assert forest.max_depth > 1
        assert np.array_equal(forest.depth, rank_order_depths(forest))

    def test_roots_are_the_ends_of_parent_chains(self):
        cl, labels, parts, sel = ring_selection(300)
        forest = build_drr_forest(parts, sel, SeedStream(15))
        for ci in range(forest.n_components):
            cur = ci
            while forest.parent[cur] >= 0:
                cur = int(forest.parent[cur])
            assert forest.root[ci] == cur


class TestMerging:
    def test_merge_reaches_roots(self):
        cl, labels, parts, sel = ring_selection(60)
        shared = SharedRandomness(master_seed=3, n=60, k=cl.k)
        forest = build_drr_forest(parts, sel, SeedStream(11))
        out = merge_forest(cl, shared, parts, forest, phase=1)
        # After merging, every vertex carries the label of its tree root.
        roots = np.nonzero(forest.parent < 0)[0]
        root_labels = set(forest.comp_labels[roots].tolist())
        assert set(np.unique(out.labels).tolist()) <= root_labels
        assert out.iterations == forest.max_depth

    def test_merge_preserves_component_membership(self):
        # Vertices in the same tree end with the same label.
        cl, labels, parts, sel = ring_selection(40)
        shared = SharedRandomness(master_seed=4, n=40, k=cl.k)
        forest = build_drr_forest(parts, sel, SeedStream(12))
        out = merge_forest(cl, shared, parts, forest, phase=1)

        def root_of(ci):
            while forest.parent[ci] >= 0:
                ci = int(forest.parent[ci])
            return ci

        for v in range(40):
            ci = int(np.searchsorted(forest.comp_labels, labels[v]))
            assert out.labels[v] == forest.comp_labels[root_of(ci)]

    def test_merge_charges_rounds(self):
        cl, labels, parts, sel = ring_selection(80)
        shared = SharedRandomness(master_seed=5, n=80, k=cl.k)
        forest = build_drr_forest(parts, sel, SeedStream(13))
        before = cl.ledger.total_rounds
        out = merge_forest(cl, shared, parts, forest, phase=1)
        if forest.max_depth > 0:
            assert cl.ledger.total_rounds > before
            assert out.rounds == cl.ledger.total_rounds - before


def random_selection(cluster, labels, seed, found_frac):
    """One random cut edge per component, found with probability ``found_frac``."""
    rng = np.random.default_rng(seed)
    parts = PartIndex.build(labels, cluster.partition)
    c = parts.n_components
    cut = np.flatnonzero(labels[cluster.inc_owner] != labels[cluster.inc_other])
    inc = cut[rng.permutation(cut.size)]
    comp = parts.comp_of_vertex[cluster.inc_owner[inc]]
    first = np.full(c, -1, dtype=np.int64)
    first[comp[::-1]] = inc[::-1]  # the first listed incidence wins
    found = (first >= 0) & (rng.random(c) < found_frac)
    pick = first[found]
    internal = np.full(c, -1, dtype=np.int64)
    foreign = np.full(c, -1, dtype=np.int64)
    neighbor = np.full(c, -1, dtype=np.int64)
    internal[found] = cluster.inc_owner[pick]
    foreign[found] = cluster.inc_other[pick]
    neighbor[found] = labels[cluster.inc_other[pick]]
    sel = OutgoingSelection(
        comp_proxy=np.zeros(c, dtype=np.int64),
        found=found,
        internal_vertex=internal,
        foreign_vertex=foreign,
        neighbor_label=neighbor,
        edge_weight=np.full(c, np.nan),
    )
    return parts, sel


@given(
    family=st.sampled_from(["gnm", "cycle", "star"]),
    n=st.integers(min_value=4, max_value=90),
    scheme=st.sampled_from(PARTITION_SCHEMES),
    k=st.sampled_from([2, 3, 8]),
    first_iteration=st.sampled_from([1, 17]),
    groups=st.integers(min_value=1, max_value=90),
    found_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=80, deadline=None)
def test_part_level_merge_matches_vertex_level_oracle(
    family, n, scheme, k, first_iteration, groups, found_frac, seed
):
    """Same labels, iterations, rounds and ledger records as the reference."""
    if family == "gnm":
        g = gen.gnm_random(n, min(2 * n, n * (n - 1) // 2), seed=seed)
    elif family == "cycle":
        g = gen.cycle_graph(n)
    else:
        g = gen.star_graph(n)
    partition = build_partition(g, k, seed, PartitionConfig(scheme=scheme))
    cl = KMachineCluster.create(g, k=k, seed=seed, partition=partition)
    # Components of several vertices spread over several machines, as in a
    # late phase: vertices fall into random groups labeled by a member.
    rng = np.random.default_rng(seed)
    labels = canonical_labels(rng.integers(0, min(groups, n), n))
    parts, sel = random_selection(cl, labels, seed, found_frac)
    forest = build_drr_forest(parts, sel, SeedStream(seed ^ 0x3E6))
    shared = SharedRandomness(master_seed=seed, n=n, k=k)
    phase = 1 + seed % 5

    start = len(cl.ledger.steps)
    want_labels, want_iterations, want_rounds = vertex_merge_forest(
        cl, shared, labels, forest, phase, first_iteration
    )
    want_steps = cl.ledger.steps[start:]
    start = len(cl.ledger.steps)
    out = merge_forest(cl, shared, parts, forest, phase, first_iteration)
    got_steps = cl.ledger.steps[start:]

    assert np.array_equal(out.labels, want_labels)
    assert out.iterations == want_iterations == forest.max_depth
    assert out.rounds == want_rounds
    assert out.n_components == np.unique(want_labels).size
    assert got_steps == want_steps
