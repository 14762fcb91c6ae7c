"""Log-diameter MPC connectivity via neighborhood doubling (graph exponentiation).

The in-registry rival to Theorem 1: Andoni-Stein-Song-Wang's MPC
connectivity (arXiv:1805.03055, PAPERS.md) converges in ``O(log D)``
rounds by *squaring* reachability each step instead of merging one
Boruvka fringe per phase.  The k-machine bounds of the source paper are
diameter-independent (O~(n/k^2) rounds whatever D is); the MPC bound is
diameter-dependent but wins exactly on the low-diameter inputs the
worst-case family registry probes.  Shipping both through one
:class:`~repro.cluster.ledger.RoundLedger` vocabulary is what makes the
``BENCH_crossover_logdiam`` study meaningful.

The simulated algorithm (a faithful-in-spirit, honestly-priced variant):

* every vertex ``v`` maintains a **ball** ``B(v)``: the ``s`` smallest
  vertex ids it has learned of in its component (``s`` is the *space
  bound*, the per-vertex analogue of the paper's ``n^delta`` machine
  space; ``None`` means unbounded).  ``label(v) = min B(v)``.
* each **doubling round**, ``v`` pulls ``B(u)`` from every ``u`` in
  ``B(v)`` (graph exponentiation: reach-radius doubles while balls are
  untruncated) and also receives ``label(u)`` from every *input-graph*
  neighbor ``u`` (the flooding floor that keeps truncated runs correct:
  labels advance at least one hop per round, so any fixpoint has
  per-component constant labels equal to the component minimum).
* the new ball is the ``s`` smallest distinct ids among the old ball,
  the pulled balls, and the flooded neighbor labels.  Balls only ever
  improve (lexicographically), so "no ball changed anywhere" is a sound
  fixpoint test; it is aggregated as a 1-bit OR at machine M1 and
  broadcast back, exactly like the Boruvka termination check.

Cost accounting — every doubling round charges the ledger two steps:

* ``logdiam:exchange-<t>``: each machine ships, once per destination
  machine that pulls it, every hosted ball (``|B(u)|`` ids) plus one
  label per input-graph incidence crossing machines.  Rounds follow from
  the k x k load matrix exactly like every other bulk step, so faults,
  partition skew and churn epochs compose for free.
* ``logdiam:termination-<t>``: the O(1) fixpoint check.

On a path (diameter D) with an unbounded space bound the pull radius
doubles every round, so the fixpoint lands after ``ceil(log2 D) + O(1)``
doubling rounds — the property the test suite pins.  The price is ball
volume: dense or truncated inputs ship Theta(s) ids per vertex per
round, which is where Theorem 1's sketches win the crossover back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.util.bits import bits_for_id

__all__ = ["DoublingStats", "LogDiamResult", "logdiam_connectivity"]


@dataclass(frozen=True)
class DoublingStats:
    """Diagnostics of one doubling round (the logdiam analogue of PhaseStats)."""

    iteration: int
    balls_changed: int
    labels_changed: int
    max_ball: int
    shortcut_pairs: int
    rounds: int


@dataclass
class LogDiamResult:
    """Output of a neighborhood-doubling connectivity run.

    Attributes
    ----------
    labels:
        ``int64[n]``; component minimum per vertex once ``converged``.
    n_components:
        Number of distinct labels.
    rounds:
        Total simulated k-machine rounds charged by this run.
    doubling_rounds:
        Doubling iterations executed (including the final no-change
        detection round) — the quantity bounded by ``ceil(log2 D) + O(1)``
        on untruncated runs.
    converged:
        True iff the ball fixpoint was reached within the budget.
    space_bound:
        The effective per-vertex ball bound ``s`` used (``n`` when the
        configured bound was ``None`` or larger than ``n``).
    phase_stats:
        Per-iteration :class:`DoublingStats`.
    """

    labels: np.ndarray
    n_components: int
    rounds: int
    doubling_rounds: int
    converged: bool
    space_bound: int
    phase_stats: list[DoublingStats] = field(default_factory=list)


def _s_smallest_per_owner(
    owners: np.ndarray, vals: np.ndarray, n_owners: int, s: int, universe: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values per owner, keeping only each owner's ``s`` smallest.

    Returns ``(vals, ptr)`` in CSR form: owner ``v``'s (sorted ascending)
    kept values live at ``vals[ptr[v]:ptr[v + 1]]``.  Owners with no
    candidate get an empty segment.  ``universe`` bounds the value range
    (exclusive); it defaults to ``n_owners``.
    """
    u = n_owners if universe is None else universe
    key = owners * np.int64(u) + vals
    uniq = np.unique(key)
    o = uniq // u
    v = uniq - o * np.int64(u)
    ptr_full = np.searchsorted(o, np.arange(n_owners + 1, dtype=np.int64))
    rank = np.arange(uniq.size, dtype=np.int64) - ptr_full[o]
    keep = rank < s
    counts = np.minimum(ptr_full[1:] - ptr_full[:-1], s)
    ptr = np.zeros(n_owners + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return v[keep], ptr


def _ball_groups(
    ball_vals: np.ndarray, ball_ptr: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Group vertices with *identical* balls; returns ``(gid, rep, m)``.

    ``gid[v]`` is the group of ``v``'s ball, ``rep[g]`` one vertex holding
    it, ``m`` the group count.  Exact (padded-row ``np.unique``), not a
    hash: collapsing two distinct balls would corrupt the dynamics.  Late
    iterations — where every vertex of a component holds the same
    saturated ball — collapse to one group, so the pulled-union work drops
    from Theta(n * s^2) to the deduplicated volume.
    """
    sizes = ball_ptr[1:] - ball_ptr[:-1]
    width = int(sizes.max()) if sizes.size else 0
    padded = np.full((n, max(width, 1)), n, dtype=np.int64)
    if ball_vals.size:
        owner = np.repeat(np.arange(n, dtype=np.int64), sizes)
        starts = ball_ptr[:-1]
        col = np.arange(ball_vals.size, dtype=np.int64) - starts[owner]
        padded[owner, col] = ball_vals
    _, gid = np.unique(padded, axis=0, return_inverse=True)
    gid = gid.ravel().astype(np.int64)
    m = int(gid.max()) + 1 if gid.size else 0
    rep = np.zeros(m, dtype=np.int64)
    rep[gid[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return gid, rep, m


def _gather_segments(
    ball_vals: np.ndarray, ball_ptr: np.ndarray, which: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the ball segments of ``which``; returns (values, segment ids).

    ``segment ids`` index into ``which`` (i.e. output slot j came from
    ``which[segment_ids[j]]``'s ball).
    """
    lens = ball_ptr[which + 1] - ball_ptr[which]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    seg = np.repeat(np.arange(which.size, dtype=np.int64), lens)
    starts = np.zeros(which.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    pos = np.arange(total, dtype=np.int64) - starts[seg]
    return ball_vals[ball_ptr[which][seg] + pos], seg


def _changed_mask(
    old_vals: np.ndarray,
    old_ptr: np.ndarray,
    new_vals: np.ndarray,
    new_ptr: np.ndarray,
    n: int,
) -> np.ndarray:
    """Per-vertex "did this ball change?" between two CSR ball states."""
    old_sizes = old_ptr[1:] - old_ptr[:-1]
    new_sizes = new_ptr[1:] - new_ptr[:-1]
    changed = old_sizes != new_sizes
    same = np.nonzero(~changed)[0]
    if same.size:
        old_flat, seg = _gather_segments(old_vals, old_ptr, same)
        new_flat, _ = _gather_segments(new_vals, new_ptr, same)
        neq = old_flat != new_flat
        if neq.any():
            changed[same[np.unique(seg[neq])]] = True
    return changed


def _charge_exchange(
    cluster: KMachineCluster,
    t: int,
    pull_u: np.ndarray,
    pull_home: np.ndarray,
    sizes: np.ndarray,
    id_bits: int,
    flood_u: np.ndarray,
    flood_dst: np.ndarray,
) -> None:
    """Price one doubling round's exchange + fixpoint check on the ledger.

    Ball shipping is deduplicated per (source vertex, pulling machine):
    ``pull_u[i]``'s ball travels once to ``pull_home[i]``'s machine no
    matter how many of its vertices pull it.  The flood pairs are the
    loop-invariant (vertex, neighbor-hosting machine) incidences.
    """
    k = cluster.k
    home = cluster.partition.home
    step = CommStep(cluster.ledger, f"logdiam:exchange-{t}")
    if pull_u.size:
        skey = np.unique(pull_u * np.int64(k) + pull_home)
        su = skey // k
        sdst = skey - su * np.int64(k)
        step.add(home[su], sdst, sizes[su] * id_bits)
    if flood_u.size:
        step.add(home[flood_u], flood_dst, id_bits)
    step.deliver()
    others = np.arange(1, k, dtype=np.int64)
    up = CommStep(cluster.ledger, f"logdiam:termination-{t}")
    up.add(others, 0, 1)
    up.deliver()
    down = CommStep(cluster.ledger, f"logdiam:termination-bcast-{t}")
    down.add(0, others, 1)
    down.deliver()


def _flood_pairs(cluster: KMachineCluster) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated (vertex, neighbor-hosting machine) flooding incidences."""
    k = cluster.k
    home = cluster.partition.home
    if not cluster.inc_owner.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    fkey = np.unique(cluster.inc_owner * np.int64(k) + home[cluster.inc_other])
    flood_u = fkey // k
    return flood_u, fkey - flood_u * np.int64(k)


def _logdiam_dense(
    cluster: KMachineCluster, budget: int
) -> tuple[np.ndarray, int, bool, list[DoublingStats]]:
    """The unbounded (``s = n``) regime as boolean reachability squaring.

    With no truncation the ball union *is* the boolean matrix product
    ``KNOWS @ KNOWS`` — one BLAS float32 matmul per doubling round — so
    the simulation runs at hardware speed instead of materializing
    Theta(n * s^2) candidate multisets.  Semantics and ledger pricing are
    identical to the CSR path; only the local (free) compute changes.
    Memory is Theta(n^2) bits, fine for every simulated scale.
    """
    n, k = cluster.n, cluster.k
    home = cluster.partition.home
    id_bits = bits_for_id(max(n, 2))
    g = cluster.graph
    deg = g.indptr[1:] - g.indptr[:-1]
    self_ids = np.arange(n, dtype=np.int64)

    bits = np.zeros((n, n), dtype=bool)
    bits[self_ids, self_ids] = True
    bits[np.repeat(self_ids, deg), g.indices] = True
    labels = bits.argmax(axis=1).astype(np.int64)
    flood_u, flood_dst = _flood_pairs(cluster)

    stats: list[DoublingStats] = []
    converged = False
    iterations = 0
    for t in range(1, budget + 1):
        iterations = t
        rounds_before = cluster.ledger.total_rounds
        sizes = bits.sum(axis=1, dtype=np.int64)
        # Pricing pulls: u's ball travels to every machine hosting a v
        # with u in B(v) — column-wise machine aggregation of the matrix.
        pulled_by = np.zeros((k, n), dtype=bool)
        for i in range(k):
            rows = bits[home == i]
            if rows.size:
                pulled_by[i] = rows.any(axis=0)
        dst_mach, pull_cols = np.nonzero(pulled_by)
        _charge_exchange(
            cluster, t, pull_cols.astype(np.int64), dst_mach.astype(np.int64),
            sizes, id_bits, flood_u, flood_dst,
        )
        f = bits.astype(np.float32)
        new_bits = (f @ f) > 0.5
        new_bits |= bits
        if flood_u.size:
            new_bits[cluster.inc_owner, labels[cluster.inc_other]] = True
        changed = (new_bits != bits).any(axis=1)
        new_labels = new_bits.argmax(axis=1).astype(np.int64)
        stats.append(
            DoublingStats(
                iteration=t,
                balls_changed=int(changed.sum()),
                labels_changed=int((new_labels != labels).sum()),
                max_ball=int(sizes.max()) if sizes.size else 0,
                shortcut_pairs=int(sizes.sum()),
                rounds=cluster.ledger.total_rounds - rounds_before,
            )
        )
        bits, labels = new_bits, new_labels
        if not changed.any():
            converged = True
            break
    return labels, iterations, converged, stats


def logdiam_connectivity(
    cluster: KMachineCluster,
    seed: int = 0,
    *,
    space_bound: int | None = None,
    doubling_budget: int | None = None,
) -> LogDiamResult:
    """Run neighborhood-doubling connectivity on ``cluster``; charges its ledger.

    This is the implementation behind the ``"connectivity_logdiam"``
    registry entry; prefer ``Session.run("connectivity_logdiam", ...)``
    for new code.  The algorithm is deterministic — ``seed`` is accepted
    for the uniform core signature (and affects the *cluster partition*
    upstream) but draws no randomness here.

    Parameters
    ----------
    cluster:
        The distributed input (graph + partition + topology + ledger).
    seed:
        Unused by the doubling dynamics (kept for signature uniformity).
    space_bound:
        Per-vertex ball bound ``s`` (the MPC machine-space knob);
        ``None`` = unbounded (``s = n``), the pure graph-exponentiation
        regime.
    doubling_budget:
        Iteration budget; ``None`` runs to the ball fixpoint, which the
        flooding floor guarantees within ``n + 1`` iterations.
    """
    del seed  # deterministic; see docstring
    n = cluster.n
    if space_bound is not None and space_bound < 1:
        raise ValueError(f"space_bound must be >= 1 or None, got {space_bound}")
    if doubling_budget is not None and doubling_budget < 1:
        raise ValueError(f"doubling_budget must be >= 1 or None, got {doubling_budget}")
    s = n if space_bound is None else min(int(space_bound), n)
    budget = int(doubling_budget) if doubling_budget is not None else n + 1
    rounds_before = cluster.ledger.total_rounds
    if s >= n:
        labels, iterations, converged, stats = _logdiam_dense(cluster, budget)
    else:
        labels, iterations, converged, stats = _logdiam_sparse(cluster, s, budget)
    return LogDiamResult(
        labels=labels,
        n_components=int(np.unique(labels).size),
        rounds=cluster.ledger.total_rounds - rounds_before,
        doubling_rounds=iterations,
        converged=converged,
        space_bound=s,
        phase_stats=stats,
    )


def _logdiam_sparse(
    cluster: KMachineCluster, s: int, budget: int
) -> tuple[np.ndarray, int, bool, list[DoublingStats]]:
    """The truncated (``s < n``) regime over CSR ball segments.

    Per-iteration work is O(n * s^2)-ish; the pulled union is realized
    once per *distinct* (ball, pulled ball) pair and broadcast to every
    holder — pure dedup, same semantics, and it collapses the saturated
    late iterations where whole components share one ball.
    """
    n = cluster.n
    home = cluster.partition.home
    id_bits = bits_for_id(max(n, 2))
    g = cluster.graph

    # Initial balls: the s smallest of {v} ∪ N(v) — machine-local knowledge.
    deg = g.indptr[1:] - g.indptr[:-1]
    self_ids = np.arange(n, dtype=np.int64)
    ball_vals, ball_ptr = _s_smallest_per_owner(
        np.concatenate([np.repeat(self_ids, deg), self_ids]),
        np.concatenate([g.indices, self_ids]),
        n,
        s,
    )
    labels = ball_vals[ball_ptr[:-1]].copy()
    flood_u, flood_dst = _flood_pairs(cluster)

    stats: list[DoublingStats] = []
    converged = False
    iterations = 0
    for t in range(1, budget + 1):
        iterations = t
        rounds_before = cluster.ledger.total_rounds
        sizes = ball_ptr[1:] - ball_ptr[:-1]
        # Directed pull pairs: v pulls B(u) for every u in B(v).
        pull_v = np.repeat(self_ids, sizes)
        pull_u = ball_vals
        _charge_exchange(
            cluster, t, pull_u, home[pull_v], sizes, id_bits, flood_u, flood_dst
        )
        # -- local update (free computation): union + s-smallest ----------
        gid, rep, m = _ball_groups(ball_vals, ball_ptr, n)
        gh = np.unique(gid[pull_v] * np.int64(m) + gid[pull_u])
        gg = gh // m
        hh = gh - gg * np.int64(m)
        pool_raw, pseg = _gather_segments(ball_vals, ball_ptr, rep[hh])
        pool_vals, pool_ptr = _s_smallest_per_owner(gg[pseg], pool_raw, m, s, universe=n)
        bcast_vals, bseg = _gather_segments(pool_vals, pool_ptr, gid)
        cand_owner = np.concatenate([bseg, pull_v, cluster.inc_owner])
        cand_val = np.concatenate([bcast_vals, ball_vals, labels[cluster.inc_other]])
        new_vals, new_ptr = _s_smallest_per_owner(cand_owner, cand_val, n, s)
        new_labels = new_vals[new_ptr[:-1]]
        changed = _changed_mask(ball_vals, ball_ptr, new_vals, new_ptr, n)
        stats.append(
            DoublingStats(
                iteration=t,
                balls_changed=int(changed.sum()),
                labels_changed=int((new_labels != labels).sum()),
                max_ball=int(sizes.max()) if sizes.size else 0,
                shortcut_pairs=int(pull_u.size),
                rounds=cluster.ledger.total_rounds - rounds_before,
            )
        )
        ball_vals, ball_ptr, labels = new_vals, new_ptr, new_labels
        if not changed.any():
            converged = True
            break
    return labels, iterations, converged, stats
