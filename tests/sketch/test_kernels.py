"""Hypothesis suite pinning the vectorized scatter kernels to np.add.at.

The hot-path rewrite (ISSUE 5) replaced every ``np.add.at`` scatter in
:mod:`repro.sketch.l0` with the :mod:`repro.sketch.kernels` segment
reductions (bincount on 30-bit halves / sort + reduceat) and batched the
per-repetition loops of :class:`SketchContext` into 2-D evaluations.  The
perf gate's byte-exact metric contract rests on these kernels returning
*identical integers* to the originals, so this suite checks them against
an ``np.add.at`` reference oracle on adversarial inputs: signed extremes,
empty masks, single-group configurations, and incidences forced to the
maximum sampling depth.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.field import MERSENNE_P
from repro.sketch.kernels import F64_EXACT, group_rows, segment_sum
from repro.sketch.l0 import SketchBundle, SketchContext, SketchSpec, _combine_halves

_LOW30 = np.int64((1 << 30) - 1)


# --------------------------------------------------------------------------
# segment_sum vs np.add.at
# --------------------------------------------------------------------------


def _addat_oracle(weights: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    acc = np.zeros(size, dtype=np.int64)
    np.add.at(acc, idx, weights)
    return acc


@settings(max_examples=80, deadline=None)
@given(data=st.data(), size=st.integers(min_value=1, max_value=7))
def test_segment_sum_matches_addat(data, size):
    n = data.draw(st.integers(min_value=0, max_value=60))
    max_abs = data.draw(
        st.sampled_from([1, (1 << 30) - 1, (MERSENNE_P - 1) >> 30, (1 << 40) - 1])
    )
    weights = np.array(
        [data.draw(st.integers(min_value=-max_abs, max_value=max_abs)) for _ in range(n)],
        dtype=np.int64,
    )
    idx = np.array(
        [data.draw(st.integers(min_value=0, max_value=size - 1)) for _ in range(n)],
        dtype=np.int64,
    )
    got = segment_sum(weights, idx, size, max_abs=max_abs)
    assert got.dtype == np.int64
    assert np.array_equal(got, _addat_oracle(weights, idx, size))


def test_segment_sum_signed_extremes_single_bin():
    # +max and -max alternating into one bin: partial sums swing across
    # the full magnitude range and must cancel exactly.
    max_abs = (1 << 31) - 1
    weights = np.array([max_abs, -max_abs] * 500 + [max_abs], dtype=np.int64)
    idx = np.zeros(weights.size, dtype=np.int64)
    out = segment_sum(weights, idx, 1, max_abs=max_abs)
    assert out[0] == max_abs


def test_segment_sum_empty_and_untouched_bins():
    out = segment_sum(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4, max_abs=1)
    assert np.array_equal(out, np.zeros(4, dtype=np.int64))


def test_segment_sum_beyond_horizon_falls_back_exactly():
    # max_count * max_abs above 2^53 forces the int64 np.add.at path; the
    # result must still match the oracle bit for bit.
    max_abs = (1 << 52) - 1
    weights = np.array([max_abs, -1, max_abs, 5], dtype=np.int64)
    idx = np.array([0, 0, 1, 1], dtype=np.int64)
    assert weights.size * max_abs > F64_EXACT
    got = segment_sum(weights, idx, 2, max_abs=max_abs)
    assert np.array_equal(got, _addat_oracle(weights, idx, 2))


# --------------------------------------------------------------------------
# group_rows vs np.add.at
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_rows_matches_addat(data):
    g = data.draw(st.integers(min_value=0, max_value=12))
    n_out = data.draw(st.integers(min_value=1, max_value=6))
    shape = (g, 2, 3)
    rows = np.array(
        [
            data.draw(st.integers(min_value=-(1 << 60), max_value=1 << 60))
            for _ in range(g * 6)
        ],
        dtype=np.int64,
    ).reshape(shape)
    gm = np.array(
        [data.draw(st.integers(min_value=0, max_value=n_out - 1)) for _ in range(g)],
        dtype=np.int64,
    )
    oracle = np.zeros((n_out, 2, 3), dtype=np.int64)
    np.add.at(oracle, gm, rows)
    assert np.array_equal(group_rows(rows, gm, n_out), oracle)


def test_group_rows_single_group_collapse():
    rows = np.arange(24, dtype=np.int64).reshape(4, 2, 3)
    got = group_rows(rows, np.zeros(4, dtype=np.int64), 1)
    assert np.array_equal(got[0], rows.sum(axis=0))


# --------------------------------------------------------------------------
# group_sums / aggregate vs the original per-repetition add.at scatters
# --------------------------------------------------------------------------


def _oracle_group_sums(ctx: SketchContext, gi, n_groups, mask=None) -> SketchBundle:
    """The original np.add.at implementation, kept verbatim as the oracle."""
    gi = np.asarray(gi, dtype=np.int64)
    sel = np.arange(gi.size) if mask is None else np.nonzero(np.asarray(mask, dtype=bool))[0]
    r, l = ctx.spec.repetitions, ctx.spec.levels
    counts = np.zeros((n_groups, r, l), dtype=np.int64)
    sums = np.zeros((n_groups, r, l), dtype=np.int64)
    fps_lo = np.zeros((n_groups, r, l), dtype=np.int64)
    fps_hi = np.zeros((n_groups, r, l), dtype=np.int64)
    g_sel = gi[sel]
    sign_sel = ctx.signs[sel]
    slot_signed = ctx.slots[sel].astype(np.int64) * sign_sel
    for rep in range(r):
        d = ctx.depths[rep, sel]
        flat = (g_sel * np.int64(r) + rep) * np.int64(l) + d
        np.add.at(counts.reshape(-1), flat, sign_sel)
        np.add.at(sums.reshape(-1), flat, slot_signed)
        f = ctx.fp_contrib[rep, sel].astype(np.int64)
        np.add.at(fps_lo.reshape(-1), flat, (f & _LOW30) * sign_sel)
        np.add.at(fps_hi.reshape(-1), flat, (f >> np.int64(30)) * sign_sel)
    counts = np.flip(np.cumsum(np.flip(counts, axis=2), axis=2), axis=2)
    sums = np.flip(np.cumsum(np.flip(sums, axis=2), axis=2), axis=2)
    fps_lo = np.flip(np.cumsum(np.flip(fps_lo, axis=2), axis=2), axis=2)
    fps_hi = np.flip(np.cumsum(np.flip(fps_hi, axis=2), axis=2), axis=2)
    return SketchBundle(ctx.spec, counts, sums, _combine_halves(fps_lo, fps_hi))


def _oracle_aggregate(bundle: SketchBundle, gm, n_out) -> SketchBundle:
    gm = np.asarray(gm, dtype=np.int64)
    r, l = bundle.spec.repetitions, bundle.spec.levels
    counts = np.zeros((n_out, r, l), dtype=np.int64)
    sums = np.zeros((n_out, r, l), dtype=np.int64)
    np.add.at(counts, gm, bundle.counts)
    np.add.at(sums, gm, bundle.sums)
    lo = np.zeros((n_out, r, l), dtype=np.int64)
    hi = np.zeros((n_out, r, l), dtype=np.int64)
    f_i = bundle.fps.astype(np.int64)
    np.add.at(lo, gm, f_i & _LOW30)
    np.add.at(hi, gm, f_i >> np.int64(30))
    return SketchBundle(bundle.spec, counts, sums, _combine_halves(lo, hi))


def _full_depth(b: SketchBundle) -> SketchBundle:
    """``b`` with its trimmed (identically zero) levels stored explicitly."""
    pad = ((0, 0), (0, 0), (0, b.spec.levels - b.counts.shape[2]))
    return SketchBundle(b.spec, np.pad(b.counts, pad), np.pad(b.sums, pad), np.pad(b.fps, pad))


def _assert_bundles_equal(a: SketchBundle, b: SketchBundle) -> None:
    a, b = _full_depth(a), _full_depth(b)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.sums, b.sums)
    assert np.array_equal(a.fps, b.fps)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_group_sums_and_aggregate_match_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=128))
    m = data.draw(st.integers(min_value=0, max_value=40))
    family = data.draw(st.sampled_from(["prf", "polynomial"]))
    mirrored = data.draw(st.booleans())
    if mirrored:
        # The cluster layout: two mirrored halves (triggers the half-eval path).
        u = np.array([data.draw(st.integers(0, n - 1)) for _ in range(m)], dtype=np.int64)
        v = np.array([data.draw(st.integers(0, n - 1)) for _ in range(m)], dtype=np.int64)
        owners = np.concatenate([u, v])
        others = np.concatenate([v, u])
        lo, hi = np.minimum(owners, others), np.maximum(owners, others)
        slots = (lo * n + hi).astype(np.uint64)
        signs = np.where(owners < others, 1, -1).astype(np.int64)
    else:
        lo = np.array([data.draw(st.integers(0, n - 1)) for _ in range(m)], dtype=np.int64)
        hi = np.array([data.draw(st.integers(0, n - 1)) for _ in range(m)], dtype=np.int64)
        slots = (np.minimum(lo, hi) * n + np.maximum(lo, hi)).astype(np.uint64)
        signs = np.array(
            [data.draw(st.sampled_from([-1, 1])) for _ in range(m)], dtype=np.int64
        )
    e = slots.size
    n_groups = data.draw(st.integers(min_value=1, max_value=5))
    gi = np.array(
        [data.draw(st.integers(0, n_groups - 1)) for _ in range(e)], dtype=np.int64
    )
    mask_kind = data.draw(st.sampled_from(["none", "empty", "random"]))
    if mask_kind == "none":
        mask = None
    elif mask_kind == "empty":
        mask = np.zeros(e, dtype=bool)
    else:
        mask = np.array([data.draw(st.booleans()) for _ in range(e)], dtype=bool)
    spec = SketchSpec.for_graph(
        n, seed=data.draw(st.integers(0, 1 << 30)), repetitions=2, hash_family=family
    )
    ctx = SketchContext(spec, slots, signs)
    got = ctx.group_sums(gi, n_groups, mask=mask)
    want = _oracle_group_sums(ctx, gi, n_groups, mask=mask)
    _assert_bundles_equal(got, want)
    n_out = data.draw(st.integers(min_value=1, max_value=4))
    gm = np.array(
        [data.draw(st.integers(0, n_out - 1)) for _ in range(n_groups)], dtype=np.int64
    )
    _assert_bundles_equal(got.aggregate(gm, n_out), _oracle_aggregate(want, gm, n_out))


def test_group_sums_max_depth_incidences():
    # Force every incidence to the deepest level: the suffix-cumsum then
    # propagates a single bin through all levels, and the oracle must agree.
    n = 16
    slots = np.array([1 * n + 3, 2 * n + 5, 1 * n + 3], dtype=np.uint64)
    signs = np.array([1, -1, -1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=9, repetitions=2)
    ctx = SketchContext(spec, slots, signs)
    ctx.depths[:] = spec.levels - 1  # adversarial override: max depth everywhere
    gi = np.zeros(3, dtype=np.int64)
    _assert_bundles_equal(
        ctx.group_sums(gi, 1), _oracle_group_sums(ctx, gi, 1)
    )
    # All levels now hold the full (cancelling) sum: counts telescope to -1.
    assert (ctx.group_sums(gi, 1).counts == -1).all()


def test_group_sums_single_group_equals_aggregate_of_many():
    # Collapsing groups after the fact must equal sketching one group.
    n = 32
    rng = np.random.default_rng(3)
    u = rng.integers(0, n, size=20)
    v = rng.integers(0, n, size=20)
    slots = (np.minimum(u, v) * n + np.maximum(u, v)).astype(np.uint64)
    signs = rng.choice([-1, 1], size=20).astype(np.int64)
    spec = SketchSpec.for_graph(n, seed=4, repetitions=3)
    ctx = SketchContext(spec, slots, signs)
    gi = rng.integers(0, 4, size=20).astype(np.int64)
    many = ctx.group_sums(gi, 4)
    one = ctx.group_sums(np.zeros(20, dtype=np.int64), 1)
    _assert_bundles_equal(many.aggregate(np.zeros(4, dtype=np.int64), 1), one)
