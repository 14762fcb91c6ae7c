"""Property suite: live-data sketching is byte-invisible.

``select_outgoing_edges`` drops component-internal incidence pairs, groups
the rest by component and sketches only the components that own one; the
docstrings in :mod:`repro.core.outgoing` prove all of it exact.  So it
must agree on every output byte — selections, ledger charges, and full-run
envelopes — with :func:`_part_level_oracle`, the paper's unpruned pipeline
(every incidence grouped by part, then ``aggregate``, then ``sample``),
across graph families x seeds x phase depths.  Hypothesis drives the
family/seed/phase axes; any counterexample it finds is a hole in the
proofs, not measurement noise.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import generators as gen
from repro.cluster.cluster import KMachineCluster
from repro.cluster.shared_random import SharedRandomness
from repro.core.labels import PartIndex, initial_labels
from repro.core import outgoing
from repro.core.outgoing import cut_incidences, cut_view, select_outgoing_edges
from repro.runtime import ClusterConfig, RunConfig, Session, SketchConfig
from repro.sketch.l0 import SketchContext

#: name -> graph factory; spans dense random, high-diameter, and
#: multi-component families (the late-phase shapes differ in each).
FAMILIES = {
    "gnm": lambda seed: gen.gnm_random(96, 288, seed=seed),
    "cycle": lambda seed: gen.cycle_graph(90),
    "lollipop": lambda seed: gen.lollipop(clique_size=24, path_len=56),
    "disjoint": lambda seed: gen.disjoint_union(
        [gen.path_graph(30), gen.cycle_graph(30), gen.gnm_random(30, 60, seed=seed)]
    ),
}


def _part_level_oracle(cluster, spec, parts, live, bound):
    """The unpruned pipeline: all incidences by part, then aggregate, then sample.

    It ignores the caller's ``live`` view and sketches every incidence under
    ``bound``, so it hands ``live`` back unnarrowed; the component bundle's
    ``sample`` gives its zero test too, the bundle's ``nonzero_mask`` or'ed
    with ``found`` (a zero vector has no verified sample).
    """
    inc_part = parts.part_of_vertex[cluster.inc_owner]
    ctx = SketchContext(spec, cluster.inc_slot, cluster.inc_sign)
    mask = None
    if bound is not None:
        mask = cluster.inc_weight < bound[parts.comp_of_part[inc_part]]
    part_bundle = ctx.group_sums(inc_part, parts.n_parts, mask=mask)
    comp_bundle = part_bundle.aggregate(parts.comp_of_part, parts.n_components)
    return comp_bundle.sample(), live


@contextmanager
def _sketching(live: bool):
    """Run the block on the live-data path, or on the part-level oracle."""
    if live:
        yield
    else:
        with mock.patch.object(outgoing, "_sample_components", _part_level_oracle):
            yield


def _select(cluster, shared, labels, phase, **kw):
    """One selection step on ``labels``; returns (parts, selection, zero test)."""
    parts = PartIndex.build(labels, cluster.partition)
    weighted = kw.get("weight_bound_per_comp") is not None
    live = cut_view(cluster, parts, cut_incidences(cluster, labels), weighted=weighted)
    sel, nonzero, _ = select_outgoing_edges(
        cluster, shared, labels, phase, sketch=SketchConfig(), parts=parts, live=live, **kw
    )
    return parts, sel, nonzero


def _selection_state(sel, nonzero) -> tuple:
    """Every output byte of a selection and its zero test, as comparable objects.

    The two endpoint arrays fix the sampled edge, and with it its slot.
    """
    return (
        sel.comp_proxy.tobytes(),
        nonzero.tobytes(),
        sel.found.tobytes(),
        sel.internal_vertex.tobytes(),
        sel.foreign_vertex.tobytes(),
        sel.neighbor_label.tobytes(),
        sel.edge_weight.tobytes(),
    )


def _ledger_state(cluster) -> list:
    """The charge stream: label, rounds, and bits of every step, in order."""
    return [(s.label, s.rounds, s.total_bits) for s in cluster.ledger.steps]


def _merge(labels: np.ndarray, parts, sel) -> np.ndarray:
    """Deterministic label merge along found edges (pointer-jumped union).

    Not the production merge rule — any coherent merge works here; the
    point is to reach deeper phases with realistic multi-vertex
    components so the pruned fraction is non-trivial.
    """
    parent = np.arange(labels.max() + 1, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ci in np.nonzero(sel.found)[0]:
        a = find(int(parts.comp_labels[ci]))
        b = find(int(sel.neighbor_label[ci]))
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.array([find(int(l)) for l in labels], dtype=np.int64)


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=50),
    phases=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_selection_bytes_identical_across_phases(family, seed, phases):
    """Live == part-level at every phase of a Boruvka-style label evolution."""
    g = FAMILIES[family](seed)
    labels = initial_labels(g.n)
    for phase in range(1, phases + 1):
        states, ledgers = [], []
        for live in (False, True):
            cl = KMachineCluster.create(g, k=4, seed=seed)
            shared = SharedRandomness(master_seed=seed, n=g.n, k=4)
            with _sketching(live):
                parts, sel, nonzero = _select(cl, shared, labels, phase)
            states.append(_selection_state(sel, nonzero))
            ledgers.append(_ledger_state(cl))
        assert states[0] == states[1], f"selection diverged at phase {phase}"
        assert ledgers[0] == ledgers[1], f"ledger charges diverged at phase {phase}"
        labels = _merge(labels, parts, sel)
        if np.unique(labels).size == 1:
            break


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_selection_identical_under_weight_bound(seed):
    """The MST path: per-component weight bounds drop incidences asymmetrically."""
    g = gen.with_unique_weights(gen.gnm_random(80, 240, seed=seed), seed=seed)
    labels = (np.arange(g.n, dtype=np.int64) % 8) * (g.n // 8)
    labels = np.sort(labels)  # 8 components, canonical smallest-member labels
    n_comp = np.unique(labels).size
    rng = np.random.default_rng(seed)
    bound = rng.uniform(0.2, 1.0, size=n_comp)
    states = []
    for live in (False, True):
        cl = KMachineCluster.create(g, k=4, seed=seed)
        shared = SharedRandomness(master_seed=seed, n=g.n, k=4)
        with _sketching(live):
            _, sel, nonzero = _select(cl, shared, labels, 2, weight_bound_per_comp=bound)
        states.append(_selection_state(sel, nonzero))
    assert states[0] == states[1]


@pytest.mark.parametrize("algorithm", ["connectivity", "mst"])
@given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=10, deadline=None)
def test_full_run_envelopes_identical(algorithm, family, seed):
    """End to end: the part-level oracle and the live-data path produce the same bytes."""
    g = FAMILIES[family](seed)
    if algorithm == "mst":
        g = gen.with_unique_weights(g, seed=seed)
    cfg = RunConfig(seed=seed, cluster=ClusterConfig(k=4))
    envelopes = []
    for live in (False, True):
        with _sketching(live):
            envelopes.append(Session(g, config=cfg).run(algorithm).to_json(include_timing=False))
    assert envelopes[0] == envelopes[1]
