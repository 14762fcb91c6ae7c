"""Outgoing-edge selection via combined linear sketches (Section 2.4).

One invocation implements the paper's per-phase selection step:

1. every machine builds the summed sketch of each component part it hosts
   (local computation over its own incidences — free);
2. parts ship their sketches to the component's random proxy machine
   (Lemma 1 traffic, charged through the load-matrix accounting);
3. each proxy sums its parts' sketches into the component sketch and
   samples one outgoing edge (Lemma 2);
4. the proxy resolves the *foreign* endpoint's current component label by
   querying that vertex's home machine (computable locally from the shared
   partition hash), one query/reply per component.

For the MST algorithm the same routine runs with a per-component weight
bound: incidences whose edge weight meets/exceeds the bound are zeroed out
before sketching (Section 3.1's edge-elimination), and the reply to the
label query additionally carries the sampled edge's weight.  The sketch
parameters arrive as the run's
:class:`~repro.runtime.config.SketchConfig`; this step keeps no defaults
of its own.

Live-data sketching
-------------------
The step sketches only the live data: it drops *component-internal*
incidence pairs, groups the surviving cut incidences directly at component
granularity, and gives sketch rows only to the components that own one of
them.  Callers keep the cut incidences as a sorted index
(:func:`cut_incidences`) that contracts as components merge, and hand a
step its :class:`CutView`: that index with each incidence's component
and, under a weight bound, its weight, gathered once per phase.  A step
keeps the view's incidences under its bound and returns the kept view, so
MST's elimination calls each filter the previous call's set, never the
whole cut index (:meth:`CutView.narrow` says why that is exact).  Each
shortcut is exact —
the resulting samples and zero-test flags are byte-identical to the
part-level pipeline of the paper's steps 1-3 (proofs in
:func:`select_outgoing_edges` and
:meth:`~repro.sketch.l0.SketchContext.sample_groups`), so every
downstream decision, ledger charge, and committed baseline is unchanged;
only the kernel work shrinks with the frontier.

The zero test
-------------
The sketch answers two questions per component: a sampled outgoing edge,
and whether the (possibly weight-restricted) cut vector is zero.  The
phase loops read the second to stop or retry a phase in which nothing was
sampled (connectivity) and to certify each elimination call's MWOEs
(MST).  One sampling pass answers both, and a step returns the flags
beside its selection.  A component with a verified sample reads nonzero
without a fingerprint: a zero vector has no candidate cell, and a
verified cell's fingerprint ``c * r^slot`` is never 0.  Level-0
fingerprints are computed only over the incidences of the components
that sampled nothing, so a step that sampled every live component
computes none.  The flags are the dense bundle's ``nonzero_mask`` or'ed
with ``found``; where every level-0 fingerprint of a nonzero vector
vanishes beside a verified sample, the mask alone reads a false zero and
the flags read nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.shared_random import SharedRandomness
from repro.core.labels import PartIndex
from repro.core.proxy import parts_to_proxies, proxy_of_labels
from repro.runtime.config import SketchConfig
from repro.sketch.edgespace import decode_slot
from repro.sketch.l0 import SampleResult, SketchContext, SketchSpec
from repro.util.bits import bits_for_id

__all__ = ["CutView", "OutgoingSelection", "cut_incidences", "cut_view", "select_outgoing_edges"]


@dataclass(frozen=True)
class OutgoingSelection:
    """Per-component outcome of one selection step: what the phase loop reads.

    Arrays are indexed by component, aligned with the ``comp_labels`` of the
    :class:`PartIndex` the step ran on.

    Attributes
    ----------
    comp_proxy:
        ``int64[C]``; the proxy machine of each component this iteration.
    found:
        ``bool[C]``; True where one-sparse recovery produced a verified edge.
    internal_vertex / foreign_vertex:
        ``int64[C]``; the sampled edge's endpoint inside / outside the
        component (-1 where not found).
    neighbor_label:
        ``int64[C]``; current label of the foreign endpoint's component.
    edge_weight:
        ``float64[C]``; sampled edge weight (NaN unless the step had a
        weight bound and found an edge).
    """

    comp_proxy: np.ndarray
    found: np.ndarray
    internal_vertex: np.ndarray
    foreign_vertex: np.ndarray
    neighbor_label: np.ndarray
    edge_weight: np.ndarray


def cut_incidences(
    cluster: KMachineCluster, labels: np.ndarray, live: np.ndarray | None = None
) -> np.ndarray:
    """Ascending ids of the incidences whose endpoints carry different labels.

    ``live``, if given, is the cut index of an earlier labeling that
    ``labels`` coarsens, and only it is scanned: components only merge, so
    an incidence internal to a component never becomes a cut incidence
    again, and filtering the old index leaves the same ascending
    subsequence a full scan finds.
    """
    if live is None:
        return np.flatnonzero(labels[cluster.inc_owner] != labels[cluster.inc_other])
    return live[labels[cluster.inc_owner[live]] != labels[cluster.inc_other[live]]]


@dataclass(frozen=True)
class CutView:
    """The cut incidences a selection step may sketch, with what it filters by.

    Attributes
    ----------
    ids:
        ``int64[E]``; ascending incidence ids, a subsequence of the phase's
        :func:`cut_incidences`.
    comp:
        ``int64[E]``; the component of each incidence's owner, an index
        into ``parts.comp_labels``.
    weight:
        ``float64[E]``; each incidence's edge weight, or None for a view
        that no weight bound narrows (connectivity).
    """

    ids: np.ndarray
    comp: np.ndarray
    weight: np.ndarray | None

    def narrow(self, bound: np.ndarray) -> "CutView":
        """The incidences with ``weight < bound[comp]``, in the same order.

        MST's elimination calls pass bounds that never rise within a
        phase: a component's bound is only ever replaced by the weight of
        an edge it sampled under that bound, and a finished component's is
        −∞ from then on.  So each call's kept set is a subset of the
        previous call's, and narrowing the previous call's view leaves the
        same ascending subsequence that filtering the phase's whole cut
        index by the same bound does.  A view that loses nothing (the
        first call's ``+inf`` bounds) is returned as it is.
        """
        if self.weight is None:
            raise ValueError("a weight bound needs a view built with weights")
        keep = np.flatnonzero(self.weight < bound[self.comp])
        if keep.size == self.ids.size:
            return self
        return CutView(self.ids[keep], self.comp[keep], self.weight[keep])


def cut_view(
    cluster: KMachineCluster, parts: PartIndex, cut: np.ndarray, *, weighted: bool = False
) -> CutView:
    """The :class:`CutView` of the cut index ``cut`` under ``parts``.

    ``weighted`` also gathers each incidence's edge weight, which a step
    with a weight bound filters by.
    """
    comp = parts.comp_of_vertex[cluster.inc_owner[cut]]
    return CutView(cut, comp, cluster.inc_weight_of(cut) if weighted else None)


def select_outgoing_edges(
    cluster: KMachineCluster,
    shared: SharedRandomness,
    labels: np.ndarray,
    phase: int,
    *,
    sketch: SketchConfig,
    parts: PartIndex,
    live: CutView,
    iteration: int = 0,
    sketch_seed: int | None = None,
    weight_bound_per_comp: np.ndarray | None = None,
) -> tuple[OutgoingSelection, np.ndarray, CutView]:
    """Run one sketch-sample-resolve step; charges the cluster ledger.

    Returns the selection, the step's zero test and the view it sketched.
    The zero test is ``bool[C]``, True where the component sampled an edge
    or its (possibly weight-restricted) sketch is nonzero — i.e. an
    outgoing edge exists w.h.p. (see the module docstring).  The view is
    ``live`` narrowed to the weight bound (``live`` itself without one).

    Parameters
    ----------
    cluster, shared, labels, phase:
        Run state.  ``labels`` is the current component label per vertex.
    sketch:
        The run's sketch parameters; with the seed they fix the step's
        :class:`~repro.sketch.l0.SketchSpec`.
    parts:
        The :class:`PartIndex` of ``labels``.
    live:
        A :class:`CutView` of the :func:`cut_incidences` of ``labels``
        under ``parts`` (:func:`cut_view`), with weights when a bound is
        given.  Under a bound it may be the view an earlier step of the
        same phase returned, provided no component's bound has risen
        since (:meth:`CutView.narrow`).
    iteration:
        Sub-iteration rho (fresh proxy hash per Lemma 5's requirement).
    sketch_seed:
        Seed of the sketch matrix; defaults to the phase matrix
        ``shared.sketch_seed(phase)``.  MST elimination passes a fresh
        seed per elimination round.
    weight_bound_per_comp:
        ``float64[C]`` aligned with ``parts.comp_labels``: incidences with
        ``weight >= bound`` are excluded from the sketch (MST elimination),
        and label-query replies carry the sampled edge's weight (64 extra
        bits).  ``+inf`` keeps every incidence; None keeps every incidence
        and leaves the weights out.

    Notes
    -----
    The paper's pipeline sketches every incidence per part, ships the part
    sketches, and sums them per component at the proxy.  This step instead
    drops component-internal incidences and groups the rest directly by
    component.  **Exactness proof** — the component sketches are
    byte-identical to the part-level ones:

    1. *Internal pairs cancel.*  An edge ``{u, v}`` with
       ``labels[u] == labels[v]`` appears as two incidences carrying the
       same canonical slot with opposite signs (the min-endpoint owner gets
       +1).  Equal slots receive the same per-repetition sampling depth and
       the same fingerprint power ``r^slot``, so at component granularity —
       where both incidences land in the same group — every accumulator
       sees ``+x`` and ``-x`` of the *same exact integer*: counts and
       id-sums are exact signed int64, and the fingerprint accumulators are
       exact signed sums of 30-bit halves reduced to the canonical
       representative mod ``p = 2^61 - 1``.  Dropping the pair changes no
       accumulator value.  Under an MST weight bound both halves share the
       owner component, hence the same bound and the same edge weight, so
       they are always kept or dropped *together* — surviving internal
       incidences still cancel pairwise.
    2. *Part grouping commutes with aggregation.*  Sketch linearity:
       grouping incidences by part and then summing parts into components
       (``aggregate``) produces exact int64 counts/sums and canonical mod-p
       fingerprints of the same residues as grouping the incidences by
       component directly, so the part-level pass can be skipped.

    Every downstream consumer (zero test, sample, label queries) reads
    only the per-component nonzero flags and samples, and every ledger
    charge depends only on the part/proxy structure and
    ``spec.message_bits`` — never on sketch *contents* — so selections,
    rounds, and RunReport envelopes are byte-identical to the part-level
    pipeline.  Pinned against it by ``tests/core/test_pruning.py``.
    """
    n, k = cluster.n, cluster.k
    seed = shared.sketch_seed(phase) if sketch_seed is None else sketch_seed
    spec = SketchSpec.for_graph(
        n, seed, repetitions=sketch.repetitions, hash_family=sketch.hash_family
    )
    shared.charge_sketch_seed_distribution(cluster.ledger, phase)

    # 1. Local sketch construction per part (free local computation).
    bound = None
    if weight_bound_per_comp is not None:
        bound = np.asarray(weight_bound_per_comp, dtype=np.float64)
        if bound.shape != (parts.n_components,):
            raise ValueError("weight_bound_per_comp must align with components")

    # 2. Ship part sketches to component proxies (Lemma 1 pattern).
    stream = shared.proxy_stream(phase, iteration)
    comp_proxy = proxy_of_labels(stream, parts.comp_labels, k)
    part_proxy = comp_proxy[parts.comp_of_part]
    parts_to_proxies(
        cluster,
        f"sketch-to-proxy:phase-{phase}-it-{iteration}",
        parts.part_machine,
        part_proxy,
        spec.message_bits,
    )

    # 3. Proxy-side combination and sampling (Lemma 2), computed for steps
    # 1 and 3 at once at component granularity (see the proof above).
    sample, live = _sample_components(cluster, spec, parts, live, bound)
    found = sample.found

    c = parts.n_components
    internal = np.full(c, -1, dtype=np.int64)
    foreign = np.full(c, -1, dtype=np.int64)
    neighbor_label = np.full(c, -1, dtype=np.int64)
    weight = np.full(c, np.nan, dtype=np.float64)
    if found.any():
        idx = np.nonzero(found)[0]
        lo, hi = decode_slot(n, sample.slots[idx])
        sign = sample.signs[idx]
        internal[idx] = np.where(sign > 0, lo, hi)
        foreign[idx] = np.where(sign > 0, hi, lo)

        # 4. Resolve the foreign endpoint's label (and weight, for MST):
        # proxy -> home(foreign) query, then the reply re-runs the schedule.
        foreign_home = cluster.partition.home[foreign[idx]]
        query_bits = bits_for_id(n * n) + bits_for_id(n)
        reply_bits = bits_for_id(n) + (64 if bound is not None else 0)
        q = CommStep(cluster.ledger, f"label-query:phase-{phase}-it-{iteration}")
        q.add(comp_proxy[idx], foreign_home, query_bits)
        q.deliver()
        r = CommStep(cluster.ledger, f"label-reply:phase-{phase}-it-{iteration}")
        r.add(foreign_home, comp_proxy[idx], reply_bits)
        r.deliver()
        neighbor_label[idx] = labels[foreign[idx]]
        if bound is not None:
            weight[idx] = _edge_weights(cluster, sample.slots[idx])

    selection = OutgoingSelection(
        comp_proxy=comp_proxy,
        found=found,
        internal_vertex=internal,
        foreign_vertex=foreign,
        neighbor_label=neighbor_label,
        edge_weight=weight,
    )
    return selection, sample.nonzero, live


def _sample_components(
    cluster: KMachineCluster,
    spec: SketchSpec,
    parts: PartIndex,
    live: CutView,
    bound: np.ndarray | None,
) -> tuple[SampleResult, CutView]:
    """Per component: one sampled cut edge, and the zero test of its cut sketch.

    Sketches the incidences of ``live`` under ``bound`` grouped by
    component, and returns the sample with the view it sketched.
    :meth:`~repro.sketch.l0.SketchContext.sample_groups`
    returns, byte for byte, the samples and zero test of the dense
    ``(C, R, L)`` bundle (its docstring proves it) while evaluating only
    the *live* components — those owning at least one kept incidence —
    and, past repetition 0, only the ones still without a verified sample.
    In each repetition a component whose deepest incidence is alone at its
    depth (a lone top cell) takes that incidence unscattered; only the
    components tied at the top are scattered into cells and checked by
    fingerprint.  Its zero test fingerprints only the components that
    sampled nothing (see the module docstring).  A component owning no
    kept incidence reads ``found=False, slot=-1, sign=0, nonzero=False``,
    as its all-zero dense row does.
    """
    if bound is not None:
        live = live.narrow(bound)
    ctx = SketchContext(spec, cluster.inc_slot[live.ids], cluster.inc_sign[live.ids])
    return ctx.sample_groups(live.comp, parts.n_components), live


def _edge_weights(cluster: KMachineCluster, slots: np.ndarray) -> np.ndarray:
    """Weights of the edges at canonical ``slots`` (vectorized lookup).

    ``cluster.inc_slot[:m]`` holds every edge's slot in ascending order
    (``inc_edge[:m]`` is ``arange(m)``), so a slot's search position is
    its edge id.  The home machine of either endpoint knows the weight
    locally; this is the content of the label-query reply, so no extra
    communication is charged here.
    """
    key = cluster.inc_slot[: cluster.m]
    q = slots.astype(key.dtype)
    pos = np.clip(np.searchsorted(key, q), 0, key.size - 1)
    if not np.all(key[pos] == q):
        raise KeyError("sampled slot does not correspond to a graph edge")
    return cluster.graph.weights[pos]
