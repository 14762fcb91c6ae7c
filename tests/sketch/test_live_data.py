"""Live-data sketching equals the full-depth dense sketch, byte for byte.

Outgoing-edge selection sketches only live data:
:meth:`~repro.sketch.l0.SketchContext.sample_groups` evaluates only the
components that own a kept incidence
(:func:`repro.core.outgoing._sample_components`), one repetition at a time
and only for the components still without a verified sample, and reads
fingerprints only at the cells a decision depends on, powering only the
incidences that reach a checked cell; its zero test reads a component
with a verified sample as nonzero without a fingerprint and fingerprints
level 0 only for the components that sampled nothing; ``group_sums``
builds the level axis only down to the deepest selected incidence, and
``sample`` verifies each group's first candidate before any other.  This
suite pins all of it, zero test included, against an independent oracle:
every group gets a row, every level of ``spec.levels`` is stored, the
cells are accumulated one incidence at a time with Python integers, and
every candidate is verified with Python's ``pow``.  Hypothesis covers
random incidence lists, untouched groups, masks, weight bounds, a single
group, empty selections and incidences forced to the maximum depth;
deterministic cases reach each exact branch of ``sample_groups`` (a
multi-occupancy candidate that verifies, a level-0 fingerprint that
vanishes on a nonzero vector that sampled nothing, one that vanishes
beside a verified sample, which settles the zero test, a group with no
single-occupancy candidate in any repetition, a checked cell whose answer
needs the incidences at its own column); the remaining tests pin the
sample fallback order, linearity on trimmed bundles, and the level trim
on a large input.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import outgoing
from repro.sketch import l0
from repro.sketch.field import MERSENNE_P
from repro.sketch.l0 import SampleResult, SketchBundle, SketchContext, SketchSpec

P = MERSENNE_P


# --------------------------------------------------------------------------
# The oracle: full-depth dense tensors, every candidate verified
# --------------------------------------------------------------------------


def _dense_oracle(ctx: SketchContext, group, n_groups: int, keep) -> SketchBundle:
    """Every group and every level; one incidence at a time, exact ints."""
    r, l = ctx.spec.repetitions, ctx.spec.levels
    counts = np.zeros((n_groups, r, l), dtype=np.int64)
    sums = np.zeros((n_groups, r, l), dtype=np.int64)
    fps = np.zeros((n_groups, r, l), dtype=np.uint64)
    for i in np.flatnonzero(keep):
        g, sign, slot = int(group[i]), int(ctx.signs[i]), int(ctx.slots[i])
        for rep in range(r):
            fp = int(ctx.fp_contrib[rep, i])
            for lev in range(int(ctx.depths[rep, i]) + 1):
                counts[g, rep, lev] += sign
                sums[g, rep, lev] += sign * slot
                fps[g, rep, lev] = (int(fps[g, rep, lev]) + sign * fp) % P
    return SketchBundle(ctx.spec, counts, sums, fps)


def _sample_oracle(b: SketchBundle) -> SampleResult:
    """First verified candidate per group, repetition up, level down."""
    g, r, l = b.counts.shape
    n2 = b.spec.n * b.spec.n
    found = np.zeros(g, dtype=bool)
    slots = np.full(g, -1, dtype=np.int64)
    signs = np.zeros(g, dtype=np.int64)
    for gi in range(g):
        cells = ((rep, lev) for rep in range(r) for lev in reversed(range(l)))
        for rep, lev in cells:
            c = int(b.counts[gi, rep, lev])
            slot = c * int(b.sums[gi, rep, lev])
            if abs(c) != 1 or not 0 <= slot < n2:
                continue
            want = pow(b.spec.fingerprint_base(rep), slot, P)
            if int(b.fps[gi, rep, lev]) == (want if c > 0 else (P - want) % P):
                found[gi], slots[gi], signs[gi] = True, slot, c
                break
    # A verified sample proves a nonzero vector; otherwise level 0 decides.
    nonzero = found | np.any(b.fps[:, :, 0] != 0, axis=1)
    return SampleResult(found, slots, signs, nonzero)


def _oracle_add(a: SketchBundle, b: SketchBundle) -> SketchBundle:
    fps = (a.fps.astype(object) + b.fps.astype(object)) % P
    return SketchBundle(a.spec, a.counts + b.counts, a.sums + b.sums, fps.astype(np.uint64))


def _oracle_aggregate(b: SketchBundle, gm: np.ndarray, n_out: int) -> SketchBundle:
    out = [np.zeros((n_out,) + b.counts.shape[1:], dtype=object) for _ in range(3)]
    for acc, rows in zip(out, (b.counts, b.sums, b.fps)):
        np.add.at(acc, gm, rows.astype(object))
    counts, sums, fps = out
    return SketchBundle(
        b.spec, counts.astype(np.int64), sums.astype(np.int64), (fps % P).astype(np.uint64)
    )


def _full_depth(b: SketchBundle) -> SketchBundle:
    """``b`` with its trimmed (identically zero) levels stored explicitly."""
    pad = ((0, 0), (0, 0), (0, b.spec.levels - b.counts.shape[2]))
    return SketchBundle(b.spec, np.pad(b.counts, pad), np.pad(b.sums, pad), np.pad(b.fps, pad))


def _assert_same_bundle(a: SketchBundle, b: SketchBundle) -> None:
    a, b = _full_depth(a), _full_depth(b)
    assert a.counts.tobytes() == b.counts.tobytes()
    assert a.sums.tobytes() == b.sums.tobytes()
    assert a.fps.tobytes() == b.fps.tobytes()


def _sample_bytes(s: SampleResult) -> tuple:
    return s.found.tobytes(), s.slots.tobytes(), s.signs.tobytes(), s.nonzero.tobytes()


def _deep_context(deep_slots: np.ndarray):
    """A SketchContext whose incidences on ``deep_slots`` sit at max depth.

    The override is the per-repetition depth function that both the dense
    ``depths`` and ``sample_groups`` read.  Forcing by slot keeps equal
    slots at equal depths, as hashing does.
    """

    class DeepContext(SketchContext):
        def _depths(self, rep, slots):
            depths = super()._depths(rep, slots)
            depths[np.isin(slots, deep_slots)] = self.spec.levels - 1
            return depths

    return DeepContext


def _incidence_view(slots, signs, weights, group, n_groups: int):
    """The cluster and part fields ``cut_view`` and ``_sample_components``
    read, for a bare incidence list: incidence ``i`` has weight
    ``weights[i]`` and is owned by vertex ``i`` of component ``group[i]``."""
    weights = np.asarray(weights, dtype=np.float64)
    cluster = SimpleNamespace(
        inc_owner=np.arange(slots.size, dtype=np.int64),
        inc_slot=slots,
        inc_sign=signs,
        inc_weight_of=lambda inc: weights[inc],
    )
    parts = SimpleNamespace(comp_of_vertex=np.asarray(group, dtype=np.int64), n_components=n_groups)
    return cluster, parts


def _sample_view(cluster, spec, parts, ids, bound):
    """``_sample_components`` on the view of incidences ``ids``; returns the
    sample and the view it kept."""
    view = outgoing.cut_view(cluster, parts, ids, weighted=bound is not None)
    return outgoing._sample_components(cluster, spec, parts, view, bound)


# --------------------------------------------------------------------------
# Random incidence lists
# --------------------------------------------------------------------------


@st.composite
def _incidences(draw):
    n = draw(st.integers(min_value=2, max_value=48))
    m = draw(st.integers(min_value=0, max_value=30))
    u = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
    v = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
    if draw(st.booleans()):
        # The cluster layout: both endpoints own an incidence, mirrored halves.
        owners, others = np.concatenate([u, v]), np.concatenate([v, u])
        signs = np.where(owners < others, 1, -1).astype(np.int64)
    else:
        owners, others = u, v
        signs = np.array(
            draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m)), dtype=np.int64
        )
    slots = (np.minimum(owners, others) * n + np.maximum(owners, others)).astype(np.uint64)
    return n, slots, signs, owners


@settings(max_examples=80, deadline=None)
@given(data=st.data(), inc=_incidences())
def test_compact_trimmed_sample_matches_dense_oracle(data, inc):
    """Selection's sample and zero test equal the full-depth dense oracle's."""
    n, slots, signs, owners = inc
    e = slots.size
    n_groups = data.draw(st.integers(min_value=1, max_value=8), label="n_groups")
    # Incidences land on a subset of the groups; the rest stay untouched.
    used = np.array(
        data.draw(
            st.lists(st.integers(0, n_groups - 1), min_size=1, max_size=n_groups, unique=True)
        )
    )
    if data.draw(st.booleans(), label="group by owner"):
        # Component-like groups: an edge inside one cancels to a zero row.
        group = used[owners % used.size]
    else:
        group = np.array([data.draw(st.sampled_from(used)) for _ in range(e)], dtype=np.int64)
    mask_kind = data.draw(st.sampled_from(["all", "empty", "random"]))
    if mask_kind == "random":
        cross = np.array([data.draw(st.booleans()) for _ in range(e)], dtype=bool)
    else:
        cross = np.full(e, mask_kind == "all")
    weights = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(e)], dtype=np.float64)
    bound = None
    if data.draw(st.booleans(), label="weight bound"):
        bound = np.array([data.draw(st.floats(0.0, 1.0)) for _ in range(n_groups)])
    deep = np.unique(slots[[data.draw(st.booleans()) for _ in range(e)]]) if e else slots
    spec = SketchSpec.for_graph(
        n,
        seed=data.draw(st.integers(0, 1 << 30)),
        repetitions=data.draw(st.integers(1, 3)),
        hash_family=data.draw(st.sampled_from(["prf", "polynomial"])),
    )
    context = _deep_context(deep)

    keep = cross if bound is None else cross & (weights < bound[group])
    oracle = _dense_oracle(context(spec, slots, signs), group, n_groups, keep)

    cluster, parts = _incidence_view(slots, signs, weights, group, n_groups)
    with mock.patch.object(outgoing, "SketchContext", context):
        sample, kept = _sample_view(cluster, spec, parts, np.flatnonzero(cross), bound)
    assert _sample_bytes(sample) == _sample_bytes(_sample_oracle(oracle))
    assert np.array_equal(kept.ids, np.flatnonzero(keep))
    assert np.array_equal(kept.comp, group[keep])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), inc=_incidences())
def test_trimmed_group_sums_add_and_aggregate_match_oracle(data, inc):
    """group_sums, add and aggregate on trimmed bundles equal the dense ones."""
    n, slots, signs, _ = inc
    e = slots.size
    n_groups = data.draw(st.integers(min_value=1, max_value=5))
    group = np.array([data.draw(st.integers(0, n_groups - 1)) for _ in range(e)], dtype=np.int64)
    # Two masks give two bundles trimmed to (usually) different depths.
    mask_a = np.array([data.draw(st.booleans()) for _ in range(e)], dtype=bool)
    mask_b = np.array([data.draw(st.booleans()) for _ in range(e)], dtype=bool)
    spec = SketchSpec.for_graph(n, seed=data.draw(st.integers(0, 1 << 30)), repetitions=2)
    ctx = SketchContext(spec, slots, signs)
    a = ctx.group_sums(group, n_groups, mask=mask_a)
    b = ctx.group_sums(group, n_groups, mask=mask_b)
    want_a = _dense_oracle(ctx, group, n_groups, mask_a)
    want_b = _dense_oracle(ctx, group, n_groups, mask_b)
    _assert_same_bundle(a, want_a)
    _assert_same_bundle(b, want_b)
    deepest = int(ctx.depths[:, mask_a].max()) + 1 if mask_a.any() else 1
    assert a.counts.shape == (n_groups, 2, deepest)

    _assert_same_bundle(a.add(b), _oracle_add(want_a, want_b))
    _assert_same_bundle(b.add(a), _oracle_add(want_a, want_b))
    n_out = data.draw(st.integers(min_value=1, max_value=3))
    gm = np.array([data.draw(st.integers(0, n_out - 1)) for _ in range(n_groups)], dtype=np.int64)
    _assert_same_bundle(a.aggregate(gm, n_out), _oracle_aggregate(want_a, gm, n_out))
    assert _sample_bytes(a.sample()) == _sample_bytes(_sample_oracle(want_a))


def test_single_group_and_empty_selection():
    n = 20
    slots = np.array([1 * n + 4, 2 * n + 9, 3 * n + 7], dtype=np.uint64)
    signs = np.array([1, 1, -1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=5, repetitions=3)
    ctx = SketchContext(spec, slots, signs)
    zeros, everything = np.zeros(3, dtype=np.int64), np.ones(3, dtype=bool)
    _assert_same_bundle(ctx.group_sums(zeros, 1), _dense_oracle(ctx, zeros, 1, everything))
    # Nothing selected: one level, all zero, nothing found.
    empty = ctx.group_sums(np.zeros(3, dtype=np.int64), 4, mask=np.zeros(3, dtype=bool))
    assert empty.counts.shape == (4, 3, 1)
    assert not empty.nonzero_mask().any()
    assert not empty.sample().found.any()
    # No live component at all: nothing is sketched, every row reads empty.
    cluster, parts = _incidence_view(slots, signs, np.zeros(3), np.array([0, 1, 1]), 2)
    sample, _ = _sample_view(cluster, spec, parts, np.empty(0, dtype=np.int64), None)
    assert not sample.nonzero.any() and not sample.found.any()
    assert sample.slots.tolist() == [-1, -1] and sample.signs.tolist() == [0, 0]


def test_live_zero_row_keeps_its_place():
    # Component 0 is live but its two incidences cancel; 1 is untouched;
    # 2 owns one cut incidence.  Each must read its own row back.
    n = 20
    slots = np.array([1 * n + 4, 1 * n + 4, 3 * n + 7], dtype=np.uint64)
    signs = np.array([1, -1, 1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=6, repetitions=3)
    group = np.array([0, 0, 2], dtype=np.int64)
    cluster, parts = _incidence_view(slots, signs, np.zeros(3), group, 3)
    sample, _ = _sample_view(cluster, spec, parts, np.arange(3), None)
    assert sample.nonzero.tolist() == [False, False, True]
    oracle = _dense_oracle(SketchContext(spec, slots, signs), group, 3, np.ones(3, dtype=bool))
    assert _sample_bytes(sample) == _sample_bytes(_sample_oracle(oracle))
    assert sample.found.tolist() == [False, False, True]


# --------------------------------------------------------------------------
# The exact branches of sample_groups, each reached on purpose
# --------------------------------------------------------------------------


def _check_against_oracle(ctx: SketchContext, group: np.ndarray, n_groups: int):
    """``sample_groups``, zero test included, equals the oracle; return the
    sample and the oracle bundle."""
    sample = ctx.sample_groups(group, n_groups)
    oracle = _dense_oracle(ctx, group, n_groups, np.ones(group.size, dtype=bool))
    assert _sample_bytes(sample) == _sample_bytes(_sample_oracle(oracle))
    return sample, oracle


def test_multi_occupancy_candidate_verifies():
    # Groups 0 and 2: a same-slot +- pair and one survivor, all at max
    # depth in every repetition, so the first candidate holds three
    # incidences with count +-1; the fingerprint +-r^b (resp. -r^d)
    # verifies.  Group 1 is an ordinary group of two incidences.
    n = 40
    a, b, c, d = 3 * n + 17, 5 * n + 9, 13 * n + 21, 2 * n + 33
    slots = np.array([a, a, b, 7 * n + 8, 11 * n + 30, c, d, c], dtype=np.uint64)
    signs = np.array([1, -1, 1, 1, -1, -1, -1, 1], dtype=np.int64)
    group = np.array([0, 0, 0, 1, 1, 2, 2, 2], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=13, repetitions=3)
    ctx = _deep_context(np.array([a, b, c, d], dtype=np.uint64))(spec, slots, signs)
    assert (ctx.depths[:, [0, 1, 2, 5, 6, 7]] == spec.levels - 1).all()
    sample, _ = _check_against_oracle(ctx, group, 3)
    assert sample.nonzero.tolist() == [True, True, True]
    assert (sample.found[0], sample.slots[0], sample.signs[0]) == (True, b, 1)
    assert (sample.found[2], sample.slots[2], sample.signs[2]) == (True, d, -1)


def test_nonzero_reads_a_later_repetition_where_level0_vanishes():
    # With r = p - 1 in repetition 0, r^slot = +-1 by the slot's parity.
    # Group 0 holds +1 on an even and +1 on an odd slot, both forced to the
    # deepest level: every cell holds both (count 2), so it samples
    # nothing, and its repetition-0 level-0 fingerprint 1 - 1 = 0 vanishes
    # on a nonzero vector, so repetition 1 decides its flag.  Group 1 is a
    # true zero (a same-slot +- pair): every repetition vanishes.  Group 2
    # holds one incidence: sampled, hence nonzero with no fingerprint.
    # Group 3's two even slots of opposite sign vanish in repetition 0 too,
    # but its sample settles it; the sample comes from repetition 0,
    # although repetition 1 puts the other incidence deepest.
    n = 40
    even, odd = 12 * n + 14, 5 * n + 9
    slots = np.array(
        [even, odd, 9 * n + 13, 9 * n + 13, 4 * n + 7, 2 * n + 4, 6 * n + 10], dtype=np.uint64
    )
    signs = np.array([1, 1, 1, -1, 1, 1, -1], dtype=np.int64)
    group = np.array([0, 0, 1, 1, 2, 3, 3], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=22, repetitions=3)
    real_base, real_scatter = SketchSpec.fingerprint_base, l0._modp_scatter_sum
    scattered = []

    def base(self, rep):
        return P - 1 if rep == 0 else real_base(self, rep)

    def scatter(values, signs, idx, n_out):
        scattered.append((idx.tolist(), n_out))
        return real_scatter(values, signs, idx, n_out)

    with mock.patch.object(SketchSpec, "fingerprint_base", base):
        ctx = _deep_context(np.array([even, odd], dtype=np.uint64))(spec, slots, signs)
        with mock.patch.object(l0, "_modp_scatter_sum", scatter):
            sample, oracle = _check_against_oracle(ctx, group, 4)
    assert oracle.fps[0, 0, 0] == 0 and oracle.fps[0, 1, 0] != 0 and oracle.fps[3, 0, 0] == 0
    assert sample.found.tolist() == [False, False, True, True]
    assert sample.nonzero.tolist() == [True, False, True, True]
    # Repetitions 0 and 1 fingerprint the two groups that sampled nothing;
    # repetition 2 only the true zero, the one group still vanishing.  Each
    # scatter has one row per group it fingerprints, not one per group.
    assert scattered == [([0, 0, 1, 1], 2), ([0, 0, 1, 1], 2), ([0, 0], 1)]
    depths = ctx.depths[:2, 5:]
    assert depths[0, 1] > depths[0, 0] and depths[1, 0] > depths[1, 1]
    assert (sample.found[3], sample.slots[3], sample.signs[3]) == (True, 6 * n + 10, -1)


def test_verified_sample_settles_a_vanishing_level0_fingerprint():
    # One repetition with r = p - 1: r^1 = -1 and r^2 = 1, so slots 1 and
    # 2, both signed +1, give a level-0 fingerprint of 0 on a nonzero
    # vector.  Forcing slot 2 deepest leaves it alone in the deepest cell,
    # a verified single-occupancy sample.  The dense mask reads a false
    # zero there; the selection's zero test reads nonzero, because a zero
    # vector holds no candidate cell.
    n = 8
    slots = np.array([1, 2], dtype=np.uint64)
    signs = np.array([1, 1], dtype=np.int64)
    group = np.zeros(2, dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=7, repetitions=1)
    context = _deep_context(np.array([2], dtype=np.uint64))
    cluster, parts = _incidence_view(slots, signs, np.zeros(2), group, 1)
    with mock.patch.object(SketchSpec, "fingerprint_base", lambda self, rep: P - 1):
        ctx = context(spec, slots, signs)
        oracle = _dense_oracle(ctx, group, 1, np.ones(2, dtype=bool))
        want = _sample_oracle(oracle)
        with mock.patch.object(outgoing, "SketchContext", context):
            sample, _ = _sample_view(cluster, spec, parts, np.arange(2), None)
    assert ctx.depths[0, 0] < ctx.depths[0, 1] == spec.levels - 1
    assert oracle.fps[0, 0, 0] == 0 and not oracle.nonzero_mask().any()
    assert _sample_bytes(sample) == _sample_bytes(want)
    assert (sample.found[0], sample.slots[0], sample.signs[0]) == (True, 2, 1)
    assert sample.nonzero.tolist() == [True]


def test_group_without_single_occupancy_in_any_repetition():
    # Group 0: a +- pair on slot a plus +s1, +s2, -s3, all at max depth, so
    # every level of every repetition holds all five incidences: count +1
    # and slot s1 + s2 - s3, never a single-occupancy cell.  Each of those
    # candidates is checked exactly and fails.  Group 1 is ordinary.
    n = 40
    a, s1, s2, s3 = 1 * n + 2, 5 * n + 6, 7 * n + 8, 3 * n + 4
    deep = np.array([a, s1, s2, s3], dtype=np.uint64)
    slots = np.array([a, a, s1, s2, s3, 8 * n + 9, 12 * n + 20], dtype=np.uint64)
    signs = np.array([1, -1, 1, 1, -1, -1, 1], dtype=np.int64)
    group = np.array([0, 0, 0, 0, 0, 1, 1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=34, repetitions=4)
    ctx = _deep_context(deep)(spec, slots, signs)
    sample, oracle = _check_against_oracle(ctx, group, 2)
    assert (oracle.counts[0] == 1).all() and (oracle.sums[0] == s1 + s2 - s3).all()
    assert sample.nonzero.tolist() == [True, True]
    assert not sample.found[0] and sample.found[1]


def test_checked_cell_reads_the_incidences_at_its_own_column():
    # With r = p - 1 in repetition 0, r^slot = +-1 by the slot's parity, so
    # a multi-slot cell can verify and a later candidate can win after an
    # earlier one fails.  Group 0, deepest first:
    #   depth D:   +s1 +s2 -s3 (even, even, odd): count 1, slot 255 (odd),
    #              fingerprint 1 + 1 + 1 = 3, expected -1: fails;
    #   depth D-1: +t -u (odd, even): count 1, slot 328 (even),
    #              fingerprint 3 - 1 - 1 = 1, expected +1: verifies;
    #   depth D-2: +v +w: count 3, no candidate from here up.
    # The winning cell is the row's last checked column and needs t and u,
    # which sit exactly at that column; v and w lie past it and reach no
    # checked cell.  Group 1 holds one incidence and is never checked.
    n = 40
    s1, s2, s3, t, u, v, w = 130, 212, 87, 253, 180, 281, 322
    slots = np.array([s1, s2, s3, t, u, v, w, 363], dtype=np.uint64)
    signs = np.array([1, 1, -1, 1, -1, 1, 1, 1], dtype=np.int64)
    group = np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=41, repetitions=3)
    deepest = spec.levels - 1
    depth_of = {s1: deepest, s2: deepest, s3: deepest, t: deepest - 1, u: deepest - 1}
    depth_of.update({v: deepest - 2, w: deepest - 2, 363: deepest - 3})

    class Forced(SketchContext):
        def _depths(self, rep, slots):
            return np.array([depth_of[int(s)] for s in slots], dtype=np.int64)

    real_base, real_powers = SketchSpec.fingerprint_base, SketchContext._powers
    batches = []

    def base(self, rep):
        return P - 1 if rep == 0 else real_base(self, rep)

    def powers(self, rep, slots):
        batches.append((rep, slots.tolist()))
        return real_powers(self, rep, slots)

    with mock.patch.object(SketchSpec, "fingerprint_base", base):
        ctx = Forced(spec, slots, signs)
        with mock.patch.object(SketchContext, "_powers", powers):
            ctx.sample_groups(group, 2)
        sample, oracle = _check_against_oracle(ctx, group, 2)
    assert (oracle.counts[0, 0, deepest], oracle.fps[0, 0, deepest]) == (1, 3)
    assert (sample.found[0], sample.slots[0], sample.signs[0]) == (True, 328, 1)
    # One batch: the five incidences that reach a checked cell, then the
    # two candidates' expected values.
    assert batches == [(0, [s1, s2, s3, t, u, 255, 328])]


# --------------------------------------------------------------------------
# The sample fallback: head first, then the rest of the failed groups
# --------------------------------------------------------------------------


def test_sample_falls_back_past_a_failed_head():
    n = 16
    spec = SketchSpec.for_graph(n, seed=3, repetitions=2)
    r0, r1 = spec.fingerprint_base(0), spec.fingerprint_base(1)
    shape = (5, 2, 4)
    counts = np.zeros(shape, dtype=np.int64)
    sums = np.zeros(shape, dtype=np.int64)
    fps = np.zeros(shape, dtype=np.uint64)

    def cell(g, rep, lev, slot, sign, fp):
        counts[g, rep, lev], sums[g, rep, lev], fps[g, rep, lev] = sign, sign * slot, fp

    bad = 12345  # no r^slot of these slots
    # Group 0: head (rep 0, level 3) fails; a shallower level of rep 0 verifies.
    cell(0, 0, 3, 17, 1, bad)
    cell(0, 0, 2, 21, 1, pow(r0, 21, P))
    cell(0, 1, 3, 40, 1, pow(r1, 40, P))
    # Group 1: rep 0's only candidate fails; rep 1 verifies (sign -1).
    cell(1, 0, 1, 33, 1, bad)
    cell(1, 1, 0, 50, -1, P - pow(r1, 50, P))
    # Group 2: candidates, none verifies.  Group 3: no candidate at all.
    cell(2, 0, 3, 18, 1, bad)
    cell(2, 1, 2, 19, -1, bad)
    # Group 4: head verifies; a deeper-order candidate that also verifies is ignored.
    cell(4, 0, 1, 70, -1, P - pow(r0, 70, P))
    cell(4, 1, 3, 71, 1, pow(r1, 71, P))
    # A non-candidate cell (|c| = 2) above group 4's head changes nothing.
    counts[4, 0, 3], sums[4, 0, 3], fps[4, 0, 3] = 2, 5, 7

    bundle = SketchBundle(spec, counts, sums, fps)
    got = bundle.sample()
    assert got.found.tolist() == [True, True, False, False, True]
    assert got.slots.tolist() == [21, 50, -1, -1, 70]
    assert got.signs.tolist() == [1, -1, 0, 0, -1]
    assert _sample_bytes(got) == _sample_bytes(_sample_oracle(bundle))


# --------------------------------------------------------------------------
# A large input: one incidence alone sets the level trim
# --------------------------------------------------------------------------


def test_large_group_sums_trims_to_its_one_deepest_incidence():
    n = 1024
    e = 24_576
    rng = np.random.default_rng(11)
    u, v = rng.integers(0, n, e), rng.integers(0, n, e)
    slots = (np.minimum(u, v) * n + np.maximum(u, v)).astype(np.uint64)
    signs = rng.choice([-1, 1], size=e).astype(np.int64)
    spec = SketchSpec.for_graph(n, seed=8, repetitions=2)
    ctx = SketchContext(spec, slots, signs)
    # Only the last incidence reaches the deepest level.
    ctx.depths[:] = np.minimum(ctx.depths, spec.levels - 3)
    ctx.depths[:, -1] = spec.levels - 1
    group = rng.integers(0, 37, e).astype(np.int64)
    mask = rng.random(e) < 0.9
    mask[-1] = True
    got = ctx.group_sums(group, 37, mask=mask)
    assert got.counts.shape == (37, 2, spec.levels)
    want = _dense_oracle(ctx, group, 37, mask)
    _assert_same_bundle(got, want)
    assert _sample_bytes(got.sample()) == _sample_bytes(_sample_oracle(want))
