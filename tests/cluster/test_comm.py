"""Tests for bulk communication steps and dissemination primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.comm import CommStep, broadcast_from_machine, disseminate_from_machine
from repro.cluster.ledger import RoundLedger
from repro.cluster.topology import ClusterTopology
from repro.sketch.kernels import F64_EXACT


def ledger(k=4, bw=100) -> RoundLedger:
    return RoundLedger(ClusterTopology(k=k, bandwidth_bits=bw))


class TestCommStep:
    def test_vectorized_add_and_deliver(self):
        led = ledger()
        step = CommStep(led, "s")
        step.add(np.array([0, 0, 1]), np.array([1, 2, 3]), np.array([150, 20, 99]))
        assert step.deliver() == 2  # ceil(150/100)
        assert led.total_bits == 269

    def test_scalar_broadcasting(self):
        led = ledger()
        step = CommStep(led, "s")
        step.add(0, np.array([1, 2, 3]), 10)
        step.deliver()
        assert led.sent_bits[0] == 30

    def test_double_deliver_rejected(self):
        step = CommStep(ledger(), "s")
        step.deliver()
        with pytest.raises(RuntimeError):
            step.deliver()

    def test_add_after_deliver_rejected(self):
        step = CommStep(ledger(), "s")
        step.deliver()
        with pytest.raises(RuntimeError):
            step.add(0, 1, 10)

    def test_out_of_range_machines(self):
        step = CommStep(ledger(k=2), "s")
        with pytest.raises(ValueError):
            step.add(0, 5, 10)

    def test_negative_bits(self):
        step = CommStep(ledger(), "s")
        with pytest.raises(ValueError):
            step.add(0, 1, -1)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_all_to_all_capacity_is_k_times_k_minus_1_links(self, k):
        # The Theta~(k^2) bits per round behind the Omega~(n/k^2) bound:
        # a full bandwidth on every ordered pair fits in one round.
        led = ledger(k=k, bw=100)
        src, dst = np.nonzero(~np.eye(k, dtype=bool))
        step = CommStep(led, "all-to-all")
        step.add(src, dst, 100)
        assert step.deliver() == 1
        assert led.total_bits == k * (k - 1) * 100
        over = CommStep(led, "one-bit-over")
        over.add(src, dst, 100)
        over.add(0, 1, 1)
        assert over.deliver() == 2

    def test_empty_step_zero_rounds(self):
        assert CommStep(ledger(), "s").deliver() == 0


@st.composite
def _adds(draw):
    """``k`` and a few ``(src, dst, bits)`` calls: each argument a scalar or
    an array of the call's size (0 included); some calls carry bits so
    large that their sum passes the float64 horizon."""
    k = draw(st.integers(2, 6))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 12))
        top = draw(st.sampled_from([1000, 1 << 59]))

        def arg(hi):
            if draw(st.booleans()):
                return draw(st.integers(0, hi))
            values = draw(st.lists(st.integers(0, hi), min_size=size, max_size=size))
            return np.array(values, dtype=np.int64)

        calls.append((arg(k - 1), arg(k - 1), arg(top)))
    return k, calls


@settings(max_examples=200, deadline=None)
@given(_adds())
# Two messages on one link whose float64 sum 2^53 + 1 would round.
@example((2, [(np.array([0, 0]), 1, np.array([F64_EXACT, 1]))]))
def test_add_matches_an_add_at_reference(case):
    k, calls = case
    led = ledger(k=k)
    step = CommStep(led, "s")
    load = np.zeros((k, k), dtype=np.int64)
    messages = 0
    for src, dst, bits in calls:
        step.add(src, dst, bits)
        s, d, b = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in (src, dst, bits)))
        np.add.at(load, (s.ravel(), d.ravel()), b.ravel())
        messages += s.size
    assert step._load.tobytes() == load.tobytes()
    assert step._messages == messages
    step.deliver()
    off = load.copy()
    np.fill_diagonal(off, 0)
    [record] = led.steps
    assert led.load_total.tobytes() == off.tobytes()
    assert (record.messages, record.total_bits) == (messages, int(off.sum()))
    assert record.max_link_bits == int(off.max(initial=0))



class TestBroadcast:
    def test_naive_broadcast_rounds(self):
        led = ledger(k=5, bw=100)
        rounds = broadcast_from_machine(led, "b", 0, 250)
        assert rounds == 3  # ceil(250/100) to each of 4 peers in parallel

    def test_dissemination_beats_naive_for_large_payloads(self):
        # The 2-round relay spreads the payload over k-1 links.
        k, bw, bits = 9, 100, 100_000
        naive = broadcast_from_machine(ledger(k, bw), "b", 0, bits)
        relay = disseminate_from_machine(ledger(k, bw), "d", 0, bits)
        assert relay < naive
        # Relay is ~2/(k-1) of naive.
        assert relay <= 2 * (naive // (k - 1)) + 4

    def test_dissemination_all_machines_receive(self):
        led = ledger(k=4, bw=1000)
        disseminate_from_machine(led, "d", 0, 900)
        # Every machine other than the source received bits.
        assert all(led.received_bits[m] > 0 for m in range(1, 4))
