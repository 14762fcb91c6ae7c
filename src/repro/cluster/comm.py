"""Bulk communication steps with exact round accounting.

Algorithms in this repository express each parallel communication step as a
set of (source machine, destination machine, bits) messages;
:class:`CommStep` accumulates them into a k x k load matrix and charges the
ledger ``ceil(max off-diagonal load / B)`` rounds — the exact optimal
schedule length for a complete network with per-link bandwidth B.  Each
:meth:`CommStep.add` accumulates in one pass over the link ids
``src * k + dst``: a ``np.bincount`` of messages scaled by a scalar bit
count, or an exact :func:`~repro.sketch.kernels.segment_sum` of per-message
bits.

Machine-local messages (src == dst) are free, reflecting the model's free
local computation; they are still counted in ``messages`` for diagnostics.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.ledger import RoundLedger
from repro.sketch.kernels import segment_sum
from repro.util.bits import ceil_div

__all__ = ["CommStep", "broadcast_from_machine", "disseminate_from_machine"]


class CommStep:
    """One parallel communication step under construction.

    Parameters
    ----------
    ledger:
        The ledger to charge on :meth:`deliver`.
    label:
        Step label (prefix before ':' groups steps in breakdowns).
    """

    def __init__(self, ledger: RoundLedger, label: str) -> None:
        self.ledger = ledger
        self.label = label
        k = ledger.topology.k
        self._load = np.zeros((k, k), dtype=np.int64)
        self._messages = 0
        self._delivered = False

    def add(self, src: np.ndarray | int, dst: np.ndarray | int, bits: np.ndarray | int) -> None:
        """Add messages: ``bits[i]`` bits from machine ``src[i]`` to ``dst[i]``.

        Arguments broadcast against each other (scalars allowed).
        """
        if self._delivered:
            raise RuntimeError("step already delivered")
        s = np.asarray(src, dtype=np.int64)
        d = np.asarray(dst, dtype=np.int64)
        b = np.asarray(bits, dtype=np.int64)
        k = self.ledger.topology.k
        link = s * k + d
        if b.ndim and b.shape != link.shape:
            link, b = np.broadcast_arrays(link, b)
        if not link.size:
            return
        if s.min() < 0 or s.max() >= k or d.min() < 0 or d.max() >= k:
            raise ValueError("machine ids out of range")
        if b.min() < 0:
            raise ValueError("bits must be non-negative")
        link = link.ravel()
        if b.ndim:
            load = segment_sum(b.ravel(), link, k * k, max_abs=int(b.max()))
        else:
            load = np.bincount(link, minlength=k * k) * b
        self._load += load.reshape(k, k)
        self._messages += link.size

    def deliver(self) -> int:
        """Charge the ledger and return the number of rounds consumed."""
        if self._delivered:
            raise RuntimeError("step already delivered")
        self._delivered = True
        return self.ledger.charge_load_matrix(self.label, self._load, self._messages)


def broadcast_from_machine(
    ledger: RoundLedger, label: str, src_machine: int, total_bits: int
) -> int:
    """Naive broadcast: ``src`` sends ``total_bits`` to every other machine.

    Costs ``ceil(total_bits / B)`` rounds (all k-1 links run in parallel).
    """
    k = ledger.topology.k
    step = CommStep(ledger, label)
    others = np.setdiff1d(np.arange(k, dtype=np.int64), np.array([src_machine]))
    step.add(src_machine, others, total_bits)
    return step.deliver()


def disseminate_from_machine(
    ledger: RoundLedger, label: str, src_machine: int, total_bits: int
) -> int:
    """The paper's two-round relay dissemination (Section 2.2).

    M1 sends k-1 *distinct* chunks (one per link); each recipient
    rebroadcasts its chunk, making all k-1 chunks common knowledge in two
    rounds.  Distributing ``total_bits`` this way costs
    ``2 * ceil(total_bits / ((k-1) * B))`` rounds — a factor k-1 cheaper
    than the naive broadcast, which is what makes per-phase shared
    randomness affordable (O~(n/k^2) rounds for Theta~(n/k) bits).
    """
    k = ledger.topology.k
    bw = ledger.topology.bandwidth_bits
    chunk = ceil_div(max(total_bits, 1), k - 1)
    seq_rounds = 2 * ceil_div(chunk, bw)
    # Account the traffic honestly: src ships total_bits out; every machine
    # then rebroadcasts its chunk to the other k-1 machines.  The union of
    # both patterns is one chunk on every directed off-diagonal link —
    # added in a single vectorized call instead of k setdiff/add rounds
    # (this runs twice per Boruvka phase; it was a visible slice of the
    # connectivity profile).
    step = CommStep(ledger, label)
    src_ids, dst_ids = np.nonzero(~np.eye(k, dtype=bool))
    step.add(src_ids, dst_ids, chunk)
    # The load-matrix schedule bound and the explicit 2-phase relay agree up
    # to a factor <= 2; charge the explicit relay count for fidelity.
    matrix_rounds = step.deliver()
    extra = max(0, seq_rounds - matrix_rounds)
    if extra:
        ledger.charge_rounds(f"{label}:relay-sync", extra)
    return matrix_rounds + extra
