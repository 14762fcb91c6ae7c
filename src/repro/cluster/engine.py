"""Exact per-round mailbox engine for the k-machine model.

While :mod:`repro.cluster.comm` accounts bulk steps analytically, this
engine *executes* machine programs round by round with real mailboxes and
per-link bandwidth enforcement: a directed link delivers at most B bits per
round; excess traffic queues (FIFO) and large messages fragment across
rounds.  It runs flooding in the engines ablation
(``BENCH_ablation_engines``), and tests cross-validate the bulk
accounting against it (flooding, and the referee's leader election).

Programs implement :class:`MachineProgram`: per round they receive the
messages fully delivered that round and return new messages to send.

The engine runs the model's clean network only.  Fault plans and churn
schedules are charged by the bulk ledger's
:class:`~repro.scenarios.faults.FaultModel` and
:class:`~repro.scenarios.churn.EpochModel` (DESIGN.md §7-§8).

Internally the mailbox layer is array-backed (see :class:`_LinkQueue`):
per-link delivery windows resolve with one bisection over a
cumulative-bits array, so there is no per-envelope Python loop
(DESIGN.md §9).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Protocol

from repro.cluster.topology import ClusterTopology

__all__ = [
    "Envelope",
    "EngineResult",
    "MachineProgram",
    "RoundLimitExceeded",
    "SyncEngine",
]


@dataclass(slots=True)
class Envelope:
    """A message in flight.

    Attributes
    ----------
    src, dst:
        Machine ids.
    bits:
        Size charged against link bandwidth.
    payload:
        Arbitrary Python object (opaque to the engine).
    """

    src: int
    dst: int
    bits: int
    payload: Any

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("bits must be non-negative")


class MachineProgram(Protocol):
    """The per-machine behaviour executed by :class:`SyncEngine`."""

    def on_round(self, machine: int, round_no: int, inbox: list[Envelope]) -> list[Envelope]:
        """Process this round's fully-delivered messages; return new sends."""
        ...  # pragma: no cover - protocol

    def is_done(self, machine: int) -> bool:
        """True when this machine has terminated locally."""
        ...  # pragma: no cover - protocol


@dataclass
class EngineResult:
    """Outcome of an engine run."""

    rounds: int
    delivered_messages: int
    delivered_bits: int
    terminated: bool


class RoundLimitExceeded(RuntimeError):
    """``SyncEngine.run`` hit ``max_rounds`` before the network quiesced.

    Carries the accounting so far (``result``, with ``terminated=False``)
    so callers — and error reports — can see how far the run got, instead
    of a bare failure.
    """

    def __init__(self, result: EngineResult, max_rounds: int) -> None:
        self.result = result
        self.max_rounds = max_rounds
        super().__init__(
            f"engine exceeded max_rounds={max_rounds}: "
            f"{result.delivered_messages} messages "
            f"({result.delivered_bits} bits) delivered"
        )


class _LinkQueue:
    """Array-backed FIFO of envelopes on one directed link.

    Struct-of-arrays layout: the envelope objects live in one list
    (``envs``) while their sizes live in a parallel *cumulative-bits*
    list (``cum``, where ``cum[i]`` is the total size of ``envs[:i+1]``).
    One round's delivery window is then a single :func:`bisect.bisect_left`
    instead of a per-envelope loop, and partial transmission of the head
    is the scalar ``consumed`` cursor.  Plain Python ints keep the
    cumulative values overflow-free and make the tiny-window case (a
    handful of messages per round) as cheap as the bulk one — the
    accumulate/bisect machinery is all C.
    """

    __slots__ = ("envs", "cum", "head", "consumed", "offset")

    def __init__(self) -> None:
        self.envs: list[Envelope] = []
        self.cum: list[int] = []  # cum[i] = offset + total bits of envs[:i+1]
        self.head = 0  # index of the first undelivered envelope
        self.consumed = 0  # cumulative bits transmitted so far (cursor into cum)
        self.offset = 0  # total bits of envelopes removed by compaction

    def push(self, env: Envelope) -> None:
        self.envs.append(env)
        self.cum.append((self.cum[-1] if self.cum else self.offset) + env.bits)

    def _compact(self) -> None:
        """Drop the delivered prefix once it dominates (amortized O(1)).

        ``cum`` keeps its absolute values (Python ints don't overflow, so
        no rebase pass is ever needed); ``offset`` records the absolute
        cumulative total in front of ``envs[0]``.
        """
        if self.head and 2 * self.head >= len(self.envs):
            self.offset = self.cum[self.head - 1]
            del self.envs[: self.head]
            del self.cum[: self.head]
            self.head = 0

    def drain(self, budget: int) -> tuple[list[Envelope], int]:
        """Fully-delivered envelopes within ``budget`` bits, plus the window
        start index (for :meth:`delivered_bits`); the head fragments across
        rounds via the ``consumed`` cursor."""
        self._compact()
        start = self.head
        if start >= len(self.envs):
            return [], start
        target = self.consumed + budget
        # Deliver messages strictly inside the window, plus the one that
        # lands exactly on it (its last bits spend the final budget).  A
        # zero-bit envelope sitting exactly at the boundary stays queued —
        # the budget is already exhausted when the link reaches it, which
        # is what the original per-envelope loop (``while budget > 0``) did.
        end = bisect_left(self.cum, target, lo=start)
        if end < len(self.cum) and self.cum[end] == target:
            end += 1
        got = self.envs[start:end]
        # Partial transmission of the new head keeps the leftover budget;
        # a fully drained queue discards it (budget is per-round).
        self.consumed = min(target, self.cum[-1])
        self.head = end
        return got, start

    def delivered_bits(self, start: int, count: int) -> int:
        """Total size of ``envs[start : start + count]`` (O(1) from cum)."""
        if count <= 0:
            return 0
        base = self.cum[start - 1] if start else self.offset
        return self.cum[start + count - 1] - base

    @property
    def empty(self) -> bool:
        return self.head >= len(self.envs)


class SyncEngine:
    """Synchronous round executor over a complete k-machine network.

    Parameters
    ----------
    topology:
        The cluster to execute on.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._k = topology.k

    def run(
        self,
        programs: list[MachineProgram],
        max_rounds: int = 1_000_000,
    ) -> EngineResult:
        """Execute until every machine is done and all queues drained.

        Machine-local sends (src == dst) are delivered next round without
        consuming bandwidth (local computation is free in the model).

        Raises
        ------
        RoundLimitExceeded
            When ``max_rounds`` elapse before the network quiesces; the
            exception carries the accounting so far.
        """
        k = self._k
        if len(programs) != k:
            raise ValueError(f"need exactly {k} programs, got {len(programs)}")
        bw = self.topology.bandwidth_bits
        # Links are created on first use, which fixes their delivery order.
        links: defaultdict[tuple[int, int], _LinkQueue] = defaultdict(_LinkQueue)
        delivered_msgs = 0
        delivered_bits = 0
        local_pending: list[list[Envelope]] = [[] for _ in range(k)]
        rounds = 0

        def _result(terminated: bool) -> EngineResult:
            return EngineResult(
                rounds=rounds,
                delivered_messages=delivered_msgs,
                delivered_bits=delivered_bits,
                terminated=terminated,
            )

        for round_no in range(1, max_rounds + 1):
            # Deliver: each directed link transmits up to B bits.
            inboxes: list[list[Envelope]] = [[] for _ in range(k)]
            for mid in range(k):
                if local_pending[mid]:
                    inboxes[mid].extend(local_pending[mid])
                    local_pending[mid] = []
            any_traffic = False
            for (_src, dst), q in links.items():
                if q.empty:
                    continue
                got, start = q.drain(bw)
                if got or not q.empty:
                    any_traffic = True
                if not got:
                    continue
                # One bulk accounting update per link window, no
                # per-envelope arithmetic.
                delivered_bits += q.delivered_bits(start, len(got))
                delivered_msgs += len(got)
                inboxes[dst].extend(got)
            # Compute: every machine takes a step.
            any_sends = False
            for mid in range(k):
                inbox = inboxes[mid]
                outs = programs[mid].on_round(mid, round_no, inbox)
                for env in outs:
                    if not (0 <= env.dst < k) or env.src != mid:
                        raise ValueError(
                            f"machine {mid} emitted invalid envelope {env.src}->{env.dst}"
                        )
                    any_sends = True
                    if env.dst == mid:
                        local_pending[mid].append(env)
                    else:
                        links[(env.src, env.dst)].push(env)
            rounds = round_no
            queues_empty = all(q.empty for q in links.values())
            locals_empty = all(not p for p in local_pending)
            all_done = all(programs[mid].is_done(mid) for mid in range(k))
            if all_done and queues_empty and locals_empty and not any_sends:
                return _result(True)
            if not any_traffic and not any_sends and queues_empty and locals_empty:
                # Quiescent but not all done: programs are stuck waiting.
                return _result(all_done)
        raise RoundLimitExceeded(_result(False), max_rounds)
