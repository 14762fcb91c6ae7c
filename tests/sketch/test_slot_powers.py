"""Per-incidence sketch randomness, checked against its definition.

``SketchContext`` gives each incidence, per repetition, a sampling depth
(``_depths``) and a fingerprint contribution ``r^slot mod p``
(``_powers``), evaluated only when a result reads them.  Their shortcuts
must never show in the output: the depth comes from a float exponent
instead of a per-level comparison sweep, ``_powers`` picks Python's
``pow`` or a radix-``2^w`` power table whose width follows the batch
size, and a mirrored incidence list (the same slot block twice, as
clusters build it) is evaluated on one half only.  Every path is checked
here against Python integers: ``pow`` for the powers and the threshold
definition ``h < p >> l`` for the depths.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.sketch import l0
from repro.sketch.edgespace import incident_slots_and_signs, max_slot_bits
from repro.sketch.field import MERSENNE_P
from repro.sketch.kwise import make_hash
from repro.sketch.l0 import SketchContext, SketchSpec
from repro.util.rng import derive_seed

P = MERSENNE_P

# Slot bits 5, 9, 20 and 31: at n = 5 even the widest table digit,
# ceil(bits / 2) = 3, is below the usual minimum width of 4.
NS = (5, 17, 1024, 40_000)


def _widths(n: int) -> list[tuple[int, int]]:
    """``(w, size)``: every table width at ``n`` and the smallest batch taking it."""
    half = -(-max_slot_bits(n) // 2)
    lowest = min(4, half)
    return [(w, l0._POW_SLOTS if w == lowest else 1 << (w + 2)) for w in range(lowest, half + 1)]


def _slots(n: int, size: int, seed: int) -> np.ndarray:
    """``size`` slot ids: the corners of the id range first, then random ids."""
    corners = [n * n - 1, 0, n, n - 1, n * (n - 1), 1]
    rest = np.random.default_rng(seed).integers(0, n * n, max(0, size - len(corners)))
    return np.concatenate([np.array(corners[:size], dtype=np.int64), rest]).astype(np.uint64)


def _empty_context(n: int) -> SketchContext:
    spec = SketchSpec.for_graph(n, seed=5)
    return SketchContext(spec, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))


def _pow_oracle(spec: SketchSpec, slots: np.ndarray) -> np.ndarray:
    bases = [spec.fingerprint_base(rep) for rep in range(spec.repetitions)]
    rows = [[pow(b, int(s), P) for s in slots] for b in bases]
    return np.array(rows, dtype=np.uint64).reshape(spec.repetitions, slots.size)


def _depth_oracle(spec: SketchSpec, slots: np.ndarray) -> np.ndarray:
    """Deepest level ``l`` with ``h < p >> l``, from the hash values themselves."""
    seeds = [derive_seed(spec.seed, 0x1E, rep) for rep in range(spec.repetitions)]
    bits = max_slot_bits(spec.n) + 4
    h = np.stack([make_hash(seed, bits, spec.hash_family).values(slots) for seed in seeds])
    depths = np.zeros(h.shape, dtype=np.int64)
    for idx, value in np.ndenumerate(h):
        above = sum(int(value) < (P >> lev) for lev in range(spec.levels))
        depths[idx] = min(max(above - 1, 0), spec.levels - 1)
    return depths


# --------------------------------------------------------------------------
# Fingerprint powers: Python's pow and the power table
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_power_paths_switch_at_their_boundaries(n):
    # Python's pow below 40 slots; from there a table whose width
    # size.bit_length() - 3 grows by one at every power of two, clipped to
    # [4, ceil(bits / 2)], with ceil(bits / w) digits.
    bits = max_slot_bits(n)
    for w, size in _widths(n):
        assert l0._radix_digits(size, bits) == (w, -(-bits // w))
        if size > l0._POW_SLOTS:
            assert l0._radix_digits(size - 1, bits)[0] == w - 1
    widest = _widths(n)[-1][0]
    assert l0._radix_digits(1 << 40, bits)[0] == widest == -(-bits // 2)
    ctx = _empty_context(n)
    for size, tables in ((l0._POW_SLOTS - 1, 0), (l0._POW_SLOTS, 1)):
        with mock.patch.object(l0, "_power_table", wraps=l0._power_table) as table:
            ctx._powers(0, _slots(n, size, seed=size))
        assert table.call_count == tables


@pytest.mark.parametrize("n", NS)
def test_slot_powers_match_python_pow(n):
    # Every table width at n, and the pow path, on one batch holding the
    # corner slots 0 and n^2 - 1; the width is forced so the batch stays
    # small.  Several widths leave the last digit partial.
    ctx = _empty_context(n)
    bits = max_slot_bits(n)
    slots = _slots(n, 300, seed=n)
    want = _pow_oracle(ctx.spec, slots)
    partial_digit = False
    for w, _ in _widths(n):
        digits = -(-bits // w)
        partial_digit |= bits % w != 0
        with (
            mock.patch.object(l0, "_radix_digits", return_value=(w, digits)),
            mock.patch.object(l0, "_power_table", wraps=l0._power_table) as table,
        ):
            got = np.stack([ctx._powers(rep, slots) for rep in range(ctx.spec.repetitions)])
        assert table.call_count == ctx.spec.repetitions
        assert table.call_args.args[0].shape == (digits,) and table.call_args.args[1] == 1 << w
        assert got.dtype == np.uint64 and np.array_equal(got, want), w
    assert partial_digit
    few = slots[: l0._POW_SLOTS - 1]
    got = np.stack([ctx._powers(rep, few) for rep in range(ctx.spec.repetitions)])
    assert got.dtype == np.uint64 and np.array_equal(got, want[:, : few.size])


@pytest.mark.parametrize("size", [1, 2, 3, 8, 9, 100])
def test_power_table_rows_are_successive_powers(size):
    bases = np.array([0, 1, 2, P - 1, 0x1234_5678_9ABC], dtype=np.uint64)
    table = l0._power_table(bases, size)
    assert table.dtype == np.uint64 and table.shape == (bases.size, size)
    want = [[pow(int(b), j, P) for j in range(size)] for b in bases]
    assert table.tolist() == want


# --------------------------------------------------------------------------
# Sampling depths: the float-exponent form against the level thresholds
# --------------------------------------------------------------------------


def test_spec_levels_stay_within_the_depth_form():
    # _depths reads a depth off the float64 exponent of (h + 1) >> 8, which
    # is exact only up to 53 levels; the largest n a spec accepts has 42.
    assert SketchSpec.for_graph(1 << 20, seed=0).levels == 42 <= 53
    with pytest.raises(ValueError):
        SketchSpec.for_graph((1 << 20) + 1, seed=0)


@pytest.mark.parametrize("levels", [1, *range(4, 54)])
def test_depths_match_the_thresholds(levels):
    # Every threshold p >> j and its neighbours, every power of two and its
    # neighbours (where (h + 1) >> 8 changes exponent, and below 2^8 where
    # it is 0), and both ends of [0, p), as hash values fed to _depths.
    values = {0, P - 1}
    for j in range(62):
        for v in (P >> j, 1 << j):
            values.update(x for x in (v - 1, v, v + 1) if 0 <= x < P)
    h = np.array(sorted(values), dtype=np.uint64)
    want = [min(max(sum(int(x) < (P >> j) for j in range(levels)) - 1, 0), levels - 1) for x in h]
    spec = SketchSpec(n=1024, repetitions=1, levels=levels, seed=0)
    ctx = SketchContext(spec, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    with mock.patch.object(l0, "make_hash", return_value=SimpleNamespace(values=lambda _: h)):
        got = ctx._depths(0, np.zeros(h.size, dtype=np.uint64))
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("family", ["polynomial", "prf"])
def test_context_matches_its_definition(family):
    n = 300
    rng = np.random.default_rng(4)
    u, v = rng.integers(0, n, 900), rng.integers(0, n, 900)
    owners, others = np.concatenate([u, v]), np.concatenate([v, u])
    slots, signs = incident_slots_and_signs(n, owners, others)
    spec = SketchSpec.for_graph(n, seed=12, hash_family=family)
    ctx = SketchContext(spec, slots, signs)
    assert ctx.depths.shape == ctx.fp_contrib.shape == (spec.repetitions, slots.size)
    assert np.array_equal(ctx.depths, _depth_oracle(spec, ctx.slots))
    assert np.array_equal(ctx.fp_contrib, _pow_oracle(spec, ctx.slots))


def test_construction_evaluates_nothing():
    # Depths and powers are built on first use, not by the constructor.
    n = 1024
    spec = SketchSpec.for_graph(n, seed=9)
    slots = _slots(n, 400, seed=2)
    with (
        mock.patch.object(SketchContext, "_depths") as depths,
        mock.patch.object(SketchContext, "_powers") as powers,
    ):
        SketchContext(spec, slots, np.ones(slots.size, dtype=np.int64))
    assert not depths.called and not powers.called


# --------------------------------------------------------------------------
# Construction is pointwise: any split of the incidence list agrees
# --------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["mirrored", "differs_in_last", "odd_length"])
def test_split_construction_matches_whole(layout):
    n = 1024
    spec = SketchSpec.for_graph(n, seed=9)
    a = _slots(n, 400, seed=1)
    b = a.copy()
    if layout == "differs_in_last":
        b[-1] = (b[-1] + np.uint64(1)) % np.uint64(n * n)
    elif layout == "odd_length":
        b = b[:-1]
    signs = np.ones(a.size + b.size, dtype=np.int64)
    evaluated = []
    real = SketchContext._powers

    def spy(self, rep, slots):
        evaluated.append(slots.size)
        return real(self, rep, slots)

    whole = SketchContext(spec, np.concatenate([a, b]), signs)
    with mock.patch.object(SketchContext, "_powers", spy):
        whole_powers = whole.fp_contrib
    # Only the mirrored layout is evaluated on one half.
    size = a.size if layout == "mirrored" else a.size + b.size
    assert evaluated == [size] * spec.repetitions
    left = SketchContext(spec, a, signs[: a.size])
    right = SketchContext(spec, b, signs[a.size :])
    assert np.array_equal(whole_powers, np.concatenate([left.fp_contrib, right.fp_contrib], axis=1))
    assert np.array_equal(whole.depths, np.concatenate([left.depths, right.depths], axis=1))
