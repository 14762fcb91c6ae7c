"""Tests for the exact per-round mailbox engine."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.cluster.engine import Envelope, SyncEngine
from repro.cluster.topology import ClusterTopology


@dataclass
class PingPong:
    """Machine 0 pings machine 1; machine 1 echoes; both stop."""

    sent: bool = False
    got_reply: bool = False

    def on_round(self, machine, round_no, inbox):
        outs = []
        if machine == 0 and not self.sent:
            self.sent = True
            outs.append(Envelope(src=0, dst=1, bits=8, payload="ping"))
        for env in inbox:
            if env.payload == "ping":
                outs.append(Envelope(src=machine, dst=env.src, bits=8, payload="pong"))
            elif env.payload == "pong":
                self.got_reply = True
        return outs

    def is_done(self, machine):
        return True  # passive once queues drain


@dataclass
class Flooder:
    """One-shot broadcaster used for bandwidth tests."""

    payload_bits: int
    fired: bool = False
    received: list = field(default_factory=list)

    def on_round(self, machine, round_no, inbox):
        self.received.extend(inbox)
        if machine == 0 and not self.fired:
            self.fired = True
            return [Envelope(0, 1, self.payload_bits, "blob")]
        return []

    def is_done(self, machine):
        return True


def test_ping_pong_completes():
    topo = ClusterTopology(k=2, bandwidth_bits=64)
    engine = SyncEngine(topo)
    p0, p1 = PingPong(), PingPong()
    result = engine.run([p0, p1])
    assert result.terminated
    assert p0.got_reply
    assert result.delivered_messages == 2
    assert result.delivered_bits == 16


def test_large_message_fragments_across_rounds():
    topo = ClusterTopology(k=2, bandwidth_bits=10)
    engine = SyncEngine(topo)
    programs = [Flooder(payload_bits=95), Flooder(payload_bits=0)]
    result = engine.run(programs)
    assert result.terminated
    # 95 bits over a 10-bit link: ~10 delivery rounds (plus send round).
    assert 10 <= result.rounds <= 12
    assert len(programs[1].received) == 1


def test_local_messages_free_and_next_round():
    @dataclass
    class SelfSender:
        state: int = 0

        def on_round(self, machine, round_no, inbox):
            if machine == 0 and self.state == 0:
                self.state = 1
                return [Envelope(0, 0, 10**9, "huge-local")]
            if inbox:
                self.state = 2
            return []

        def is_done(self, machine):
            return True

    topo = ClusterTopology(k=2, bandwidth_bits=1)
    prog = SelfSender()
    result = SyncEngine(topo).run([prog, SelfSender()])
    assert result.terminated
    assert prog.state == 2
    assert result.rounds <= 3  # a 1-bit link never saw the local gigabit message


def test_invalid_envelope_rejected():
    @dataclass
    class Liar:
        def on_round(self, machine, round_no, inbox):
            if machine == 0:
                return [Envelope(src=1, dst=0, bits=1, payload=None)]  # forged src
            return []

        def is_done(self, machine):
            return True

    with pytest.raises(ValueError, match="invalid envelope"):
        SyncEngine(ClusterTopology(k=2, bandwidth_bits=8)).run([Liar(), Liar()])


def test_envelope_to_unknown_machine_rejected():
    @dataclass
    class Stray:
        def on_round(self, machine, round_no, inbox):
            return [Envelope(src=machine, dst=5, bits=1, payload=None)]  # k = 2

        def is_done(self, machine):
            return True

    with pytest.raises(ValueError, match="invalid envelope 0->5"):
        SyncEngine(ClusterTopology(k=2, bandwidth_bits=8)).run([Stray(), Stray()])


def test_negative_envelope_bits_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Envelope(src=0, dst=1, bits=-1, payload=None)


def test_program_count_checked():
    with pytest.raises(ValueError):
        SyncEngine(ClusterTopology(k=3, bandwidth_bits=8)).run([PingPong()])


@dataclass
class _Staggered:
    """Deterministic multi-link workload: fragmentation + interleaving."""

    k: int
    received: list = field(default_factory=list)

    def on_round(self, machine, round_no, inbox):
        self.received.extend((machine, env.src, env.payload) for env in inbox)
        outs = []
        if round_no <= 3:
            for dst in range(self.k):
                if dst != machine:
                    bits = 7 * machine + 13 * dst + 11 * round_no
                    outs.append(Envelope(machine, dst, bits, (machine, dst, round_no)))
        for env in inbox:
            if isinstance(env.payload, tuple) and len(env.payload) == 3:
                outs.append(Envelope(machine, env.src, 5, ("ack",)))
        return outs

    def is_done(self, machine):
        return True


def test_clean_path_accounting_pinned():
    """Regression oracle for the array-backed mailbox rewrite.

    The expected values (rounds, message/bit totals, and the SHA-256 of
    the full per-round delivery sequence) were recorded from the original
    per-envelope deque implementation on this exact workload; the
    vectorized link layer must reproduce them bit for bit.
    """
    import hashlib

    topo = ClusterTopology(k=4, bandwidth_bits=17)
    programs = [_Staggered(4) for _ in range(4)]
    shared = programs[0].received
    for p in programs:
        p.received = shared
    result = SyncEngine(topo).run(programs)
    assert result.terminated
    assert result.rounds == 16
    assert result.delivered_messages == 72
    assert result.delivered_bits == 2052
    digest = hashlib.sha256(repr(shared).encode()).hexdigest()
    assert digest == "af44079f86219feb99aaccbeead997b8abff8f498c3e8baaeb648041d04c56ac"


def test_zero_bit_envelope_behind_exact_budget_waits_a_round():
    """A zero-bit message queued behind one that exactly exhausts the
    round budget must wait for the next round — the original loop exited
    at budget == 0 before reaching it (pinned against the bisect window).
    """
    from repro.cluster.engine import _LinkQueue

    q = _LinkQueue()
    q.push(Envelope(0, 1, 10, "full"))
    q.push(Envelope(0, 1, 0, "signal"))
    got, _ = q.drain(10)
    assert [env.payload for env in got] == ["full"]
    got, _ = q.drain(10)
    assert [env.payload for env in got] == ["signal"]
    # With budget to spare, zero-bit messages ride along immediately.
    q2 = _LinkQueue()
    q2.push(Envelope(0, 1, 10, "full"))
    q2.push(Envelope(0, 1, 0, "signal"))
    got, _ = q2.drain(11)
    assert [env.payload for env in got] == ["full", "signal"]


def test_max_rounds_cutoff_raises_with_partial_accounting():
    from repro.cluster.engine import RoundLimitExceeded

    @dataclass
    class Chatter:
        def on_round(self, machine, round_no, inbox):
            return [Envelope(machine, (machine + 1) % 2, 8, "x")]

        def is_done(self, machine):
            return False

    with pytest.raises(RoundLimitExceeded) as excinfo:
        SyncEngine(ClusterTopology(k=2, bandwidth_bits=8)).run(
            [Chatter(), Chatter()], max_rounds=5
        )
    exc = excinfo.value
    assert exc.max_rounds == 5
    assert not exc.result.terminated
    assert exc.result.rounds == 5
    assert exc.result.delivered_messages > 0
    assert "max_rounds=5" in str(exc)


def test_reuse_after_cutoff_starts_clean():
    """Envelopes left queued by a cut-off run never reach the next run."""
    from repro.cluster.engine import RoundLimitExceeded

    @dataclass
    class Burst:
        count: int
        received: list = field(default_factory=list)

        def on_round(self, machine, round_no, inbox):
            self.received.extend(inbox)
            if machine == 0 and round_no == 1:
                return [Envelope(0, 1, 8, i) for i in range(self.count)]
            return []

        def is_done(self, machine):
            return True

    engine = SyncEngine(ClusterTopology(k=2, bandwidth_bits=8))
    with pytest.raises(RoundLimitExceeded) as excinfo:
        engine.run([Burst(10), Burst(10)], max_rounds=3)
    assert excinfo.value.result.delivered_messages == 2
    silent = [Burst(0), Burst(0)]
    result = engine.run(silent)
    assert result.terminated
    assert (result.rounds, result.delivered_messages) == (1, 0)
    assert silent[1].received == []


def test_broadcast_echo_delivers_each_payload_once():
    """Machine 0 greets every peer in round 1; each peer acks what it got."""
    k = 4
    received: list[list[tuple[int, object]]] = [[] for _ in range(k)]

    @dataclass
    class Broadcast:
        def on_round(self, machine, round_no, inbox):
            received[machine].extend((round_no, env.payload) for env in inbox)
            if machine == 0 and round_no == 1:
                return [Envelope(0, dst, 32, f"hello-{dst}") for dst in range(1, k)]
            if machine != 0:
                return [Envelope(machine, 0, 16, f"ack-{machine}") for _ in inbox]
            return []

        def is_done(self, machine):
            return True

    engine = SyncEngine(ClusterTopology(k=k, bandwidth_bits=256))
    result = engine.run([Broadcast() for _ in range(k)])
    assert result.terminated
    assert result.rounds == 3
    assert result.delivered_messages == 2 * (k - 1)
    assert result.delivered_bits == (k - 1) * (32 + 16)
    for dst in range(1, k):
        assert received[dst] == [(2, f"hello-{dst}")]
    assert received[0] == [(3, f"ack-{src}") for src in range(1, k)]


@pytest.mark.parametrize("bandwidth_bits", [8, 16, 32])
def test_link_delivers_in_fifo_order_within_bandwidth(bandwidth_bits):
    """Twenty 8-bit messages on one link arrive in send order, B/8 a round."""

    @dataclass
    class Sender:
        arrivals: list = field(default_factory=list)

        def on_round(self, machine, round_no, inbox):
            self.arrivals.extend((round_no, env.payload) for env in inbox)
            if machine == 0 and round_no == 1:
                return [Envelope(0, 1, 8, seq) for seq in range(20)]
            return []

        def is_done(self, machine):
            return True

    receiver = Sender()
    engine = SyncEngine(ClusterTopology(k=2, bandwidth_bits=bandwidth_bits))
    result = engine.run([Sender(), receiver])
    per_round = bandwidth_bits // 8
    assert result.terminated
    assert result.rounds == 1 + 20 // per_round
    assert result.delivered_bits == 160
    assert [seq for _, seq in receiver.arrivals] == list(range(20))
    assert [round_no for round_no, _ in receiver.arrivals] == [
        2 + seq // per_round for seq in range(20)
    ]
