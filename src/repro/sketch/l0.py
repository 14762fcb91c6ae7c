"""Linear l0-sampling graph sketches (Section 2.3 of the paper, after [2, 17, 32]).

A sketch of a vector ``a in {-1,0,1}^(n^2)`` (an incidence vector, or a sum
of incidence vectors of a vertex set) consists of ``R`` independent
repetitions; each repetition assigns every edge slot a geometric *level*
(slot reaches level ``l`` with probability ``2^-l``) using a hash drawn
from a Theta(log n)-wise independent family, and maintains per level the
triple

* ``c`` — sum of surviving coefficients (signed count),
* ``s`` — sum of ``coefficient * slot_id`` (exact, signed),
* ``f`` — fingerprint ``sum coefficient * r^slot_id mod p`` with
  ``p = 2^61 - 1`` and per-repetition random base ``r``.

The triples are **linear** in the underlying vector, so the sketch of a
component is the entrywise sum of the sketches of its parts — the property
Lemma 2 exploits to combine part sketches at a proxy machine without
looking at any edges.

A level holding exactly one surviving slot (coefficient ``+-1``) is
recoverable: ``c in {-1, +1}`` and ``slot = c * s``; the fingerprint check
``f === c * r^slot (mod p)`` rejects multi-slot collisions with error
probability ``< 2^40 / 2^61`` per cell.  The zero vector is detected via
the level-0 fingerprints of all repetitions (level 0 retains every slot).

Exactness
---------
All accumulation is integer-exact: counts and id-sums use int64 (valid
whenever ``total_incidences * n^2 < 2^62``, enforced by
:class:`SketchSpec`), and mod-p fingerprint accumulation splits values
into 30-bit halves so intermediate sums never overflow.  The segment
reductions run through :mod:`repro.sketch.kernels` — ``np.bincount`` on
the 30-bit halves (bit-exact in float64 below the 2^53 horizon, with an
automatic ``np.add.at`` fallback above it) and sort + ``reduceat`` for
row aggregation — which return the same integers the original
``np.add.at`` scatters produced, only an order of magnitude faster
(DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sketch.edgespace import max_slot_bits
from repro.sketch.field import MERSENNE_P, addmod, mulmod, powmod
from repro.sketch.kernels import group_rows, segment_sum
from repro.sketch.kwise import make_hash
from repro.util.rng import derive_seed

__all__ = ["SketchSpec", "SketchContext", "SketchBundle", "SampleResult"]

_P = np.uint64(MERSENNE_P)
_LOW30 = np.int64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)


#: max|weight| of a low 30-bit half times a +-1 sign.
_MAX_LO = (1 << 30) - 1
#: max|weight| of the high half of a value in [0, p), p = 2^61 - 1.
_MAX_HI_FP = (MERSENNE_P - 1) >> 30
#: Smallest power batch that takes the radix table of ``SketchContext._powers``.
#: Python's ``pow`` costs about 10 us per slot on 26-bit exponents, the
#: table's ten-odd ``mulmod`` passes about 0.5 ms on a small batch
#: (2-CPU Xeon, NumPy 2.4), so ``pow`` wins below 40-60 slots.
_POW_SLOTS = 40


def _modp_scatter_sum(values: np.ndarray, signs: np.ndarray, idx: np.ndarray, n_out: int) -> np.ndarray:
    """Exact ``sum_j signs[j] * values[j] mod p`` grouped by ``idx``.

    ``values`` are in ``[0, p)``; a direct uint64 scatter would wrap mod
    2^64 (not mod p) once more than 8 values land in a bin.  Splitting
    each value into 30-bit halves keeps both signed accumulators exact
    (see :mod:`repro.sketch.kernels` for the float64 horizon and the
    int64 fallback).
    """
    v = values.astype(np.int64)
    acc_lo = segment_sum((v & _LOW30) * signs, idx, n_out, max_abs=_MAX_LO)
    acc_hi = segment_sum((v >> np.int64(30)) * signs, idx, n_out, max_abs=_MAX_HI_FP)
    return _combine_halves(acc_lo, acc_hi)


def _combine_halves(acc_lo: np.ndarray, acc_hi: np.ndarray) -> np.ndarray:
    """Recombine signed 30-bit-split accumulators into values mod p.

    ``hi * 2^30 mod p`` needs no general mulmod: with ``hi = h1*2^31 + h0``
    and ``2^61 === 1``, it is ``h1 + h0*2^30 < 2^64`` — two shifts and an
    add, folded by the addmod.
    """
    lo_m = (acc_lo % np.int64(MERSENNE_P)).astype(np.uint64)
    hi_m = (acc_hi % np.int64(MERSENNE_P)).astype(np.uint64)
    hi_shifted = (hi_m >> np.uint64(31)) + ((hi_m & _MASK31) << np.uint64(30))
    return addmod(hi_shifted, lo_m)


def _cells(bins: np.ndarray, shape: tuple[int, int], weights=None, max_abs: int = 1) -> np.ndarray:
    """Per-cell sums of ``weights`` (occupancy when None), prefix-summed along rows.

    ``bins`` index a ``(rows, columns)`` tensor whose columns run from the
    deepest level up; a depth-``d`` incidence belongs to levels ``0..d``, so
    the prefix sum along a row turns per-depth totals into level sums.
    """
    size = shape[0] * shape[1]
    if weights is None:
        flat = np.bincount(bins, minlength=size)
    else:
        flat = segment_sum(weights, bins, size, max_abs=max_abs)
    return np.cumsum(flat.reshape(shape), axis=1)


def _firsts(keys: np.ndarray) -> np.ndarray:
    """``True`` at the first element of every run of equal sorted ``keys``."""
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return head


@dataclass(frozen=True)
class SketchSpec:
    """Parameters of one *phase sketch matrix* L_j (Section 2.3).

    A fresh spec (new ``seed``) is drawn for every phase of the
    connectivity algorithm and for every elimination iteration of the MST
    algorithm — mirroring the paper's per-phase sketch matrices.

    Attributes
    ----------
    n:
        Number of vertices (slot universe is ``[0, n^2)``).
    repetitions:
        Independent l0-sampler copies; each succeeds with constant
        probability, so failure decays geometrically.
    levels:
        Geometric levels per repetition (``max_slot_bits(n) + 2``
        by default, enough to isolate a single surviving slot).
    seed:
        Randomness key (level hashes and fingerprint bases derive from it).
    hash_family:
        ``'polynomial'`` for provable Theta(log n)-wise independence,
        ``'prf'`` for the fast keyed-PRF path (see DESIGN.md).
    """

    n: int
    repetitions: int
    levels: int
    seed: int
    hash_family: str = "polynomial"

    @staticmethod
    def for_graph(
        n: int,
        seed: int,
        repetitions: int = 6,
        hash_family: str = "polynomial",
    ) -> "SketchSpec":
        """Standard spec for an n-vertex graph."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > (1 << 20):
            raise ValueError(
                "n > 2^20 would overflow exact int64 id-sum accounting; "
                "see SketchSpec docstring"
            )
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        levels = max(4, max_slot_bits(n) + 2)
        return SketchSpec(
            n=n, repetitions=repetitions, levels=levels, seed=seed, hash_family=hash_family
        )

    @property
    def message_bits(self) -> int:
        """Bits one sketch occupies on a link (honest information content).

        Per level: count (<= 64 bits), id-sum (2*log2 n + overhead, charged
        64), fingerprint (61 bits, charged 64).  This is O(log^2 n) bits
        total, matching Lemma 2's O(polylog n).
        """
        return self.repetitions * self.levels * 3 * 64

    def fingerprint_base(self, rep: int) -> int:
        """The random evaluation point r for repetition ``rep`` (in [2, p))."""
        r = derive_seed(self.seed, 0xF1, rep) % (MERSENNE_P - 2) + 2
        return r


@dataclass
class SketchBundle:
    """Sketches of ``G`` groups: triples of shape ``(G, R, L')``.

    ``L'`` is at most ``spec.levels`` and at least 1.  Levels ``L'`` and up
    are **identically zero** and not stored: :meth:`SketchContext.group_sums`
    builds the level axis only as deep as the deepest incidence it sketched,
    because a level no incidence reaches has an empty suffix sum.  Every
    operation reads a missing level as zero — :meth:`add` zero-pads to the
    longer operand, and :meth:`sample` / :meth:`nonzero_mask` find no
    candidate and no fingerprint there — so a bundle means the same sketch
    at any ``L'`` that covers its nonzero levels.

    Supports the two linear operations the algorithms need: entrywise
    addition (:meth:`add`) and regrouping (:meth:`aggregate`), plus the
    query operations :meth:`sample` and :meth:`nonzero_mask`.
    """

    spec: SketchSpec
    counts: np.ndarray  # int64 (G, R, L')
    sums: np.ndarray  # int64 (G, R, L'), exact signed slot-id sums
    fps: np.ndarray  # uint64 (G, R, L'), values in [0, p)

    @property
    def n_groups(self) -> int:
        """Number of sketched groups."""
        return int(self.counts.shape[0])

    def add(self, other: "SketchBundle") -> "SketchBundle":
        """Entrywise sum (sketch linearity; groups must align).

        The shallower operand's missing levels are zero, so its stored
        levels add onto the first levels of the deeper one.
        """
        if other.spec != self.spec:
            raise ValueError("cannot add sketches with different specs")
        if other.counts.shape[:2] != self.counts.shape[:2]:
            raise ValueError("group shapes differ")
        deep, shallow = self, other
        if other.counts.shape[2] > self.counts.shape[2]:
            deep, shallow = other, self
        levels = shallow.counts.shape[2]
        counts, sums, fps = deep.counts.copy(), deep.sums.copy(), deep.fps.copy()
        counts[:, :, :levels] += shallow.counts
        sums[:, :, :levels] += shallow.sums
        fps[:, :, :levels] = addmod(fps[:, :, :levels], shallow.fps)
        return SketchBundle(spec=self.spec, counts=counts, sums=sums, fps=fps)

    def aggregate(self, group_map: np.ndarray, n_out: int) -> "SketchBundle":
        """Sum rows into ``n_out`` new groups: row g -> group_map[g].

        This is the proxy-side combination of Lemma 2: summing the part
        sketches of a component yields the component sketch.
        """
        gm = np.asarray(group_map, dtype=np.int64)
        if gm.shape != (self.n_groups,):
            raise ValueError("group_map must have one entry per group")
        # The summed rows hold already-accumulated (unbounded) values, so
        # this reduction stays in int64 end to end: sort + reduceat over
        # the leading axis (exactly np.add.at's integers, vectorized).
        counts = group_rows(self.counts, gm, n_out)
        sums = group_rows(self.sums, gm, n_out)
        # Fingerprints: 30-bit-split exact mod-p accumulation.
        f_i = self.fps.astype(np.int64)
        lo = group_rows(f_i & _LOW30, gm, n_out)
        hi = group_rows(f_i >> np.int64(30), gm, n_out)
        return SketchBundle(self.spec, counts, sums, _combine_halves(lo, hi))

    # -- queries -----------------------------------------------------------

    def nonzero_mask(self) -> np.ndarray:
        """Per group: True if the sketched vector is (w.h.p.) nonzero.

        Level 0 of every repetition retains all slots, so the vector is
        zero iff every repetition's level-0 fingerprint vanishes.  A false
        'zero' requires all R level-0 fingerprints of a nonzero polynomial
        to vanish simultaneously.
        """
        return np.any(self.fps[:, :, 0] != 0, axis=1)

    def sample(self) -> "SampleResult":
        """Recover one surviving slot per group where possible.

        Considers the (repetition, level) cells holding a one-sparse
        candidate in the order repetition ascending, level descending, and
        returns per group the first candidate whose fingerprint verifies
        (deep levels have the fewest survivors, giving the
        closest-to-uniform choice).  The zero test ``nonzero`` is
        ``found`` or'ed with :meth:`nonzero_mask`: a zero vector holds no
        candidate cell, so a verified sample proves a nonzero vector.

        **Head first.**  Verification is the costly step (a powmod per
        candidate), and a group's first candidate almost always verifies:
        a multi-slot cell passes ``|c| == 1`` only by accident, while the
        levels just above a one-sparse level often hold the *same* single
        slot again.  So one batched powmod verifies only each group's first
        candidate, and a second batch verifies every remaining candidate
        of the few groups whose first one failed.  The first verified
        candidate in that order is the same cell whichever way it was
        found, so the result equals verifying every candidate at once.
        """
        g, r, l = self.counts.shape
        found = np.zeros(g, dtype=bool)
        out_slot = np.full(g, -1, dtype=np.int64)
        out_sign = np.zeros(g, dtype=np.int64)
        # Reversing the level axis makes np.nonzero's C order the wanted
        # order: group, repetition ascending, level descending.
        gi, ri, li = np.nonzero(np.abs(self.counts[:, :, ::-1]) == 1)
        li = (l - 1) - li
        signs = self.counts[gi, ri, li]
        slots = self.sums[gi, ri, li] * signs  # c in {-1,+1}: slot = c * s
        in_range = (slots >= 0) & (slots < np.int64(self.spec.n) * np.int64(self.spec.n))
        gi, ri, li, slots, signs = (a[in_range] for a in (gi, ri, li, slots, signs))
        if gi.size == 0:
            return SampleResult(found, out_slot, out_sign, found | self.nonzero_mask())
        bits = max_slot_bits(self.spec.n)
        bases = np.array(
            [self.spec.fingerprint_base(rep) for rep in range(r)], dtype=np.uint64
        )

        def verified(sel: np.ndarray) -> np.ndarray:
            # One batched powmod; each candidate's base is its repetition's.
            exps = slots[sel].astype(np.uint64)
            expected = powmod(bases[ri[sel]], exps, max_exp_bits=bits)
            neg = signs[sel] < 0
            expected[neg] = (_P - expected[neg]) % _P
            return self.fps[gi[sel], ri[sel], li[sel]] == expected

        head = np.ones(gi.size, dtype=bool)
        head[1:] = gi[1:] != gi[:-1]
        heads = np.flatnonzero(head)
        ok = heads[verified(heads)]
        retry = np.ones(g, dtype=bool)
        retry[gi[ok]] = False
        rest = np.flatnonzero(~head & retry[gi])
        if rest.size:
            ok_rest = rest[verified(rest)]
            # First verified per group: rest is still in candidate order.
            first = np.ones(ok_rest.size, dtype=bool)
            first[1:] = gi[ok_rest[1:]] != gi[ok_rest[:-1]]
            ok = np.concatenate([ok, ok_rest[first]])
        found[gi[ok]] = True
        out_slot[gi[ok]] = slots[ok]
        out_sign[gi[ok]] = signs[ok]
        return SampleResult(found, out_slot, out_sign, found | self.nonzero_mask())


@dataclass(frozen=True)
class SampleResult:
    """Per-group l0-sample outcome and zero test.

    Attributes
    ----------
    found:
        ``bool[G]``; True where a verified recovery succeeded.
    slots:
        ``int64[G]``; recovered canonical slot id (-1 where not found).
    signs:
        ``int64[G]``; +1 if the *smaller* slot endpoint lies inside the
        sketched vertex set, -1 if the larger one does, 0 where not found.
    nonzero:
        ``bool[G]``; True where the sketched vector is (w.h.p.) nonzero: a
        verified sample, or a nonzero level-0 fingerprint in some repetition.
    """

    found: np.ndarray
    slots: np.ndarray
    signs: np.ndarray
    nonzero: np.ndarray


class SketchContext:
    """Per-phase randomness over a fixed incidence list.

    The graph's incidence list (slot, sign) never changes; only the group
    assignment (component labels) and the sketch randomness (per phase) do.
    Per repetition, an incidence's sampling depth (:meth:`_depths`) and
    fingerprint power ``r^slot`` (:meth:`_powers`, from a radix table sized
    to the batch) are pure functions of its slot, so the context evaluates
    them only where a result reads them, and construction itself does no
    per-incidence work:

    * :meth:`sample_groups` — outgoing-edge selection — evaluates one
      repetition at a time, only for the groups still without a verified
      sample, and computes fingerprints only at the cells a decision reads;
      its zero test computes level-0 fingerprints only for the groups that
      sampled nothing, and a later repetition's only for the groups whose
      earlier ones all vanished;
    * :meth:`group_sums` — the dense Lemma-2 reference the tests compare
      against — reads the ``(R, E)`` arrays :attr:`depths` and
      :attr:`fp_contrib`, built on first use from the same two functions.

    In model terms each machine computes this context restricted to its own
    incidences; because the computation is pointwise over incidences, the
    global precomputation used here is exactly the union of the local ones
    (no information crosses machines).
    """

    def __init__(self, spec: SketchSpec, slots: np.ndarray, signs: np.ndarray) -> None:
        self.spec = spec
        self.slots = np.asarray(slots, dtype=np.uint64)
        self.signs = np.asarray(signs, dtype=np.int64)
        if self.slots.shape != self.signs.shape or self.slots.ndim != 1:
            raise ValueError("slots and signs must be 1-D of equal length")

    def _depths(self, rep: int, slots: np.ndarray) -> np.ndarray:
        """Sampling depth of each slot in repetition ``rep`` (int64).

        A slot survives to level ``l`` while its hash ``h < p >> l``, and
        its depth is ``#{l < L: h < p >> l} - 1`` clipped to ``[0, L)``.
        Since ``h < p >> l  <=>  bitlength(h + 1) <= 61 - l``, that is
        ``clip(61 - bitlength(h + 1), 0, L - 1)``, read off a float
        exponent in a few elementwise passes.  ``v = (h + 1) >> 8`` has at
        most 53 bits, so its float64 conversion is exact and the biased
        exponent ``E = (bits of float64(v)) >> 52`` is
        ``bitlength(v) + 1022``; for ``v >= 1``,
        ``bitlength(h + 1) = bitlength(v) + 8`` and the depth is
        ``clip(1075 - E, 0, L - 1)``.  For ``v = 0`` (``h + 1 < 2^8``) the
        exponent is 0 and the form gives ``L - 1``, while the true depth is
        ``61 - bitlength(h + 1) >= 53`` before the clip: the two agree
        whenever ``L <= 53``.  That is the form's precondition, and
        :meth:`SketchSpec.for_graph` builds at most 42 levels.
        """
        spec = self.spec
        seed = derive_seed(spec.seed, 0x1E, rep)
        h = make_hash(seed, max_slot_bits(spec.n) + 4, spec.hash_family).values(slots)
        v = ((h + np.uint64(1)) >> np.uint64(8)).astype(np.float64)
        return np.clip(1075 - (v.view(np.int64) >> 52), 0, spec.levels - 1)

    def _powers(self, rep: int, slots: np.ndarray) -> np.ndarray:
        """``r^slot mod p`` per slot, ``r`` the base of repetition ``rep``.

        A batch of fewer than :data:`_POW_SLOTS` slots uses Python's
        ``pow``.  A larger one reads each slot's ``bits``-bit exponent as
        ``d`` radix-``2^w`` digits: one ``(d, 2^w)`` table from
        :func:`_power_table` holds ``(r^(2^(w*j)))^x`` for digit ``j`` and
        value ``x``, and a slot's power is the product of its digits'
        entries, one gathered ``mulmod`` per digit after the first.  The
        width follows the batch, ``w = size.bit_length() - 3`` clipped to
        ``[4, ceil(bits / 2)]`` (the upper end wins for tiny ``n``), so a
        table has about ``d * size / 8`` entries and never more than a
        two-digit one.  Both paths give the canonical representative of
        the same field element.
        """
        base = self.spec.fingerprint_base(rep)
        if slots.size < _POW_SLOTS:
            return np.array([pow(base, s, MERSENNE_P) for s in slots.tolist()], dtype=np.uint64)
        w, digits = _radix_digits(slots.size, max_slot_bits(self.spec.n))
        digit_bases = [pow(base, 1 << (w * j), MERSENNE_P) for j in range(digits)]
        table = _power_table(np.array(digit_bases, dtype=np.uint64), 1 << w)
        mask = np.uint64((1 << w) - 1)
        out = table[0, slots & mask]
        for j in range(1, digits):
            out = mulmod(out, table[j, (slots >> np.uint64(w * j)) & mask])
        return out

    def _every_incidence(self, per_rep, rep: int) -> np.ndarray:
        """``per_rep(rep, slots)`` for every incidence of the context.

        Clusters build incidence lists as two mirrored halves — concat(u, v)
        owners against concat(v, u) others — so the slot array is often the
        same block twice; one vectorized compare detects that, and the
        per-slot function then runs on one half only.
        """
        e = self.slots.size
        half = e // 2
        if e >= 2 and e % 2 == 0 and np.array_equal(self.slots[:half], self.slots[half:]):
            values = per_rep(rep, self.slots[:half])
            return np.concatenate([values, values])
        return per_rep(rep, self.slots)

    def _every_repetition(self, per_rep) -> np.ndarray:
        """``per_rep(rep, slots)`` for every repetition and incidence, ``(R, E)``."""
        rows = [self._every_incidence(per_rep, rep) for rep in range(self.spec.repetitions)]
        return np.stack(rows).reshape(self.spec.repetitions, self.slots.size)

    @cached_property
    def depths(self) -> np.ndarray:
        """``int64[(R, E)]`` sampling depths (built on first use)."""
        return self._every_repetition(self._depths)

    @cached_property
    def fp_contrib(self) -> np.ndarray:
        """``uint64[(R, E)]`` fingerprint powers ``r^slot`` (built on first use)."""
        return self._every_repetition(self._powers)

    @property
    def n_incidences(self) -> int:
        """Number of (slot, sign) incidences in the context."""
        return int(self.slots.size)

    def sample_groups(self, group_idx: np.ndarray, n_groups: int) -> SampleResult:
        """Per group, the sketch's l0 sample and zero test.

        Incidence ``i`` belongs to group ``group_idx[i]``.  Returns exactly
        ``bundle.sample()`` of ``bundle = group_sums(group_idx, n_groups)``,
        byte for byte and zero test included, without building that bundle.
        Repetition ``r`` is evaluated — hash, depth, and the count,
        occupancy and id-sum scatters with their suffix sums over a
        ``(G_r, L)`` tensor — only for the ``G_r`` groups that repetitions
        below ``r`` left without a verified sample.  Fingerprints are
        computed only where a decision reads them.  Every rule below rests
        on one fact: a group's cells depend only on its own incidences, so
        leaving other groups out changes none of them.

        1. **Repetition order.**  ``sample`` returns a group's first
           verified candidate in the order repetition ascending, level
           descending.  A group verified in repetition ``r`` has its answer
           there whatever later repetitions hold, so they skip it.  Levels
           past the deepest evaluated incidence are zero and hold no
           candidate (``c = 0``), so the tensor stops there.
        2. **Single occupancy.**  Occupancy is the unweighted count of a
           cell's incidences (one ``bincount`` over the same bins).  A cell
           holding exactly one incidence ``i`` has ``c = sign_i``,
           ``s = sign_i * slot_i`` and fingerprint ``sign_i * r^slot_i``:
           it is a candidate, its slot ``c * s = slot_i`` is in range, and
           its fingerprint equals the value verification expects.  It
           verifies without being computed.
        3. **Exact multi-occupancy cells.**  A candidate holding several
           incidences verifies or not by its fingerprint, the sum of
           ``sign_i * r^slot_i mod p`` over the group's incidences of depth
           at least its level.  That sum is computed from exactly those
           incidences with the dense path's exact 30-bit-split arithmetic
           and compared with the same expected value, so it gives the same
           answer.  Only candidates ahead of the group's first
           single-occupancy candidate are checked: that one verifies, so
           nothing after it can come first.  Occupancy never falls in
           candidate order, so only groups with no single-occupancy
           candidate in a repetition have any.  A cell sums the incidences
           of its own column and the columns before it, so an incidence
           whose column lies past its row's last checked column reaches no
           checked cell.  Only the incidences at or before that column get
           a power, in one ``_powers`` batch with the candidates' expected
           values.
        4. **The zero test.**  ``nonzero`` is ``found`` or'ed with the
           bundle's ``nonzero_mask()``.  A group with a verified sample
           reads True unfingerprinted.  A group with no incidence reads
           False: every fingerprint is 0.  A group with one incidence
           verifies in repetition 0 (rule 2), so the groups still pending
           after the loop are exactly the rest.  Their level-0
           fingerprints, each summing all of the group's incidences, are
           computed over the incidences the loop has already narrowed to
           them, into one row per such group: repetition 0's first, and a
           later repetition's only for the groups where every earlier one
           vanished.
        """
        gi = np.asarray(group_idx, dtype=np.int64)
        if gi.shape != self.slots.shape:
            raise ValueError("group_idx must have one entry per incidence")
        n2 = self.spec.n * self.spec.n
        pending = np.bincount(gi, minlength=n_groups) > 0  # no verified sample yet
        found = np.zeros(n_groups, dtype=bool)
        out_slot = np.full(n_groups, -1, dtype=np.int64)
        out_sign = np.zeros(n_groups, dtype=np.int64)
        g, slots, signs = gi, self.slots, self.signs
        for rep in range(self.spec.repetitions):
            if not pending.any():
                break
            if rep:
                keep = np.flatnonzero(pending[g])
                g, slots, signs = g[keep], slots[keep], signs[keep]
                depth = self._depths(rep, slots)
            else:  # every incidence is live in repetition 0
                depth = self._every_incidence(self._depths, 0)
            rows = np.flatnonzero(pending)
            row_of = np.zeros(n_groups, dtype=np.int64)
            row_of[rows] = np.arange(rows.size)
            row = row_of[g]
            l = int(depth.max()) + 1
            # Columns run from the deepest level up, so C order is sample's
            # candidate order: group, then level descending.
            col = (l - 1) - depth
            shape = (rows.size, l)
            bins = row * l + col
            counts = _cells(bins, shape, signs)
            occupied = _cells(bins, shape)
            signed = slots.view(np.int64) * signs  # slots < n^2 < 2^63
            sums = _cells(bins, shape, signed, max(1, n2 - 1))
            cr, cc = np.nonzero(np.abs(counts) == 1)
            c = counts[cr, cc]
            slot = sums[cr, cc] * c
            ok = (slot >= 0) & (slot < n2)
            cr, cc, c, slot = cr[ok], cc[ok], c[ok], slot[ok]
            single = occupied[cr, cc] == 1
            first_single = np.flatnonzero(single)
            first_single = first_single[_firsts(cr[first_single])]
            limit = np.full(rows.size, cr.size)
            limit[cr[first_single]] = first_single
            check = np.flatnonzero(~single & (np.arange(cr.size) < limit[cr]))
            winners = [first_single]
            if check.size:
                # Checks come in candidate order, so a row's last one has its
                # largest column; rows without a check reach nothing (-1).
                last = np.ones(check.size, dtype=bool)
                last[:-1] = cr[check[1:]] != cr[check[:-1]]
                reach = np.full(rows.size, -1, dtype=np.int64)
                reach[cr[check[last]]] = cc[check[last]]
                sub = np.flatnonzero(col <= reach[row])
                k_row = np.cumsum(reach >= 0) - 1
                k_shape = (int(k_row[-1]) + 1, l)
                k_bins = k_row[row[sub]] * l + col[sub]
                power = self._powers(rep, np.concatenate([slots[sub], slot[check].view(np.uint64)]))
                f = power[: k_bins.size].view(np.int64)  # values < p < 2^63
                sub_signs = signs[sub]
                lo = _cells(k_bins, k_shape, (f & _LOW30) * sub_signs, _MAX_LO)
                hi = _cells(k_bins, k_shape, (f >> np.int64(30)) * sub_signs, _MAX_HI_FP)
                cells = (k_row[cr[check]], cc[check])
                fp = _combine_halves(lo[cells], hi[cells])
                expected = power[k_bins.size :]
                neg = c[check] < 0
                expected[neg] = (_P - expected[neg]) % _P
                verified = check[fp == expected]
                winners.append(verified[_firsts(cr[verified])])
            # A checked candidate precedes its row's first single one, so a
            # verified one is written last and wins.
            for win in winners:
                groups = rows[cr[win]]
                found[groups] = True
                out_slot[groups] = slot[win]
                out_sign[groups] = c[win]
            pending &= ~found
        # Rule 4: only the groups that sampled nothing need a fingerprint.
        # Each gets one accumulator row (rows are sorted, so searchsorted
        # finds an incidence's row), and its flag is written back from it.
        nonzero = found.copy()
        for rep in range(self.spec.repetitions):
            rows = np.flatnonzero(pending)
            if not rows.size:
                break
            keep = np.flatnonzero(pending[g])
            g, slots, signs = g[keep], slots[keep], signs[keep]
            fp0 = _modp_scatter_sum(self._powers(rep, slots), signs, np.searchsorted(rows, g), rows.size)
            settled = rows[fp0 != 0]
            nonzero[settled] = True
            pending[settled] = False
        return SampleResult(found, out_slot, out_sign, nonzero)

    def group_sums(
        self,
        group_idx: np.ndarray,
        n_groups: int,
        mask: np.ndarray | None = None,
    ) -> SketchBundle:
        """Sketch every group: incidence i contributes to group ``group_idx[i]``.

        ``mask`` (optional) drops incidences — used by the MST edge
        elimination, which zeroes out slots whose edge weight exceeds the
        current threshold (Section 3.1).

        Returns a ``(n_groups, R, L')`` bundle with ``L' = max(1, deepest
        selected depth + 1)``, not ``spec.levels``: level ``l`` sums the
        incidences of depth ``>= l``, so every level past the deepest
        selected incidence is identically zero and is left out (see
        :class:`SketchBundle`).  The cost is O(R * E_selected) for the
        scatters plus O(n_groups * R * L') for the suffix sums and the
        mod-p recombination — it follows the live incidences and the
        groups asked for, not the full level range.
        """
        gi = np.asarray(group_idx, dtype=np.int64)
        if gi.shape != self.slots.shape:
            raise ValueError("group_idx must have one entry per incidence")
        r = self.spec.repetitions
        if mask is None:
            g_sel, sign_sel, slots_sel = gi, self.signs, self.slots
            d, f = self.depths, self.fp_contrib
        else:
            sel = np.asarray(mask, dtype=bool)
            g_sel, sign_sel, slots_sel = gi[sel], self.signs[sel], self.slots[sel]
            d, f = self.depths[:, sel], self.fp_contrib[:, sel]
        e_sel = g_sel.size
        # The level trim: levels past the deepest selected incidence are zero.
        l = int(d.max()) + 1 if e_sel else 1
        # Incidence at depth d lives in levels 0..d; accumulate into the flat
        # (group, repetition, depth) bin — all repetitions at once — then
        # suffix-sum over the level axis.  Bins never mix repetitions, so
        # each receives at most e_sel incidences (the exactness bound the
        # bincount kernel checks against).
        size = n_groups * r * l
        shape = (n_groups, r, l)
        flat = (
            (g_sel[None, :] * np.int64(r) + np.arange(r, dtype=np.int64)[:, None]) * np.int64(l)
            + d
        ).ravel()

        def scatter(weights: np.ndarray, max_abs: int) -> np.ndarray:
            tiled = np.broadcast_to(weights, (r, e_sel)).ravel() if weights.ndim == 1 else weights.ravel()
            return segment_sum(tiled, flat, size, max_abs=max_abs, max_count=e_sel).reshape(shape)

        counts = scatter(sign_sel, 1)
        # Id-sums: one scatter with max|w| = n^2 - 1.  Within the float64
        # horizon this is a single exact bincount; far beyond it (huge
        # incidence lists on huge n) the kernel falls back to the int64
        # np.add.at reference — exact either way.
        slot_signed = slots_sel.view(np.int64) * sign_sel  # slots < n^2 < 2^63: view-safe
        sums = scatter(slot_signed, max(1, int(self.spec.n) ** 2 - 1))
        f64 = f.view(np.int64)  # values < p < 2^63: reinterpret, no copy
        fps_lo = scatter((f64 & _LOW30) * sign_sel[None, :], _MAX_LO)
        fps_hi = scatter((f64 >> np.int64(30)) * sign_sel[None, :], _MAX_HI_FP)
        del flat, slot_signed  # per-incidence bins: free them before the dense passes
        # Suffix-cumulative over levels: level l = sum over depths >= l.
        counts = np.flip(np.cumsum(np.flip(counts, axis=2), axis=2), axis=2)
        sums = np.flip(np.cumsum(np.flip(sums, axis=2), axis=2), axis=2)
        fps_lo = np.flip(np.cumsum(np.flip(fps_lo, axis=2), axis=2), axis=2)
        fps_hi = np.flip(np.cumsum(np.flip(fps_hi, axis=2), axis=2), axis=2)
        return SketchBundle(self.spec, counts, sums, _combine_halves(fps_lo, fps_hi))


def _radix_digits(size: int, bits: int) -> tuple[int, int]:
    """Digit width ``w`` and digit count of a ``size``-slot power batch.

    See :meth:`SketchContext._powers`.  ``w`` is ``size.bit_length() - 3``
    clipped to ``[4, ceil(bits / 2)]``, and ``ceil(bits / w)`` digits of
    ``w`` bits cover every ``bits``-bit exponent (the last may be partial).
    """
    w = min(max(size.bit_length() - 3, 4), -(-bits // 2))
    return w, -(-bits // w)


def _power_table(bases: np.ndarray, size: int) -> np.ndarray:
    """``table[i, j] = bases[i]^j mod p`` for ``j < size``, by doubling.

    ``bases`` is ``uint64[R]``; O(R * size) field multiplications across
    O(log size) vectorized passes, all R rows doubling together.  The
    per-doubling step values ``base^(2^k)`` are maintained as Python ints
    (R bigint mulmods beat a whole numpy dispatch at that size).
    """
    bases = np.atleast_1d(np.asarray(bases, dtype=np.uint64))
    r = bases.shape[0]
    if size < 1:
        return np.ones((r, 1), dtype=np.uint64)
    table = np.ones((r, 1), dtype=np.uint64)
    step = [int(b) for b in bases]  # bases^(table width) at each doubling
    while table.shape[1] < size:
        ext = mulmod(table, np.array(step, dtype=np.uint64)[:, None])
        table = np.concatenate([table, ext], axis=1)
        step = [s * s % MERSENNE_P for s in step]
    return table[:, :size]
