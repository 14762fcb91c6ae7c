"""Tests for round/bit accounting: the exact schedule-length model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.ledger import RoundLedger
from repro.cluster.topology import ClusterTopology


def make_ledger(k=4, bw=100) -> RoundLedger:
    return RoundLedger(ClusterTopology(k=k, bandwidth_bits=bw))


class TestChargeLoadMatrix:
    def test_rounds_is_ceil_max_link(self):
        led = make_ledger(k=3, bw=100)
        load = np.zeros((3, 3), dtype=np.int64)
        load[0, 1] = 250
        load[1, 2] = 90
        assert led.charge_load_matrix("s", load) == 3  # ceil(250/100)

    def test_diagonal_is_free(self):
        led = make_ledger()
        load = np.zeros((4, 4), dtype=np.int64)
        np.fill_diagonal(load, 10**9)
        assert led.charge_load_matrix("local", load) == 0
        assert led.total_bits == 0

    def test_per_machine_traffic(self):
        led = make_ledger(k=3)
        load = np.zeros((3, 3), dtype=np.int64)
        load[0, 1] = 50
        load[0, 2] = 70
        load[2, 0] = 30
        led.charge_load_matrix("s", load)
        assert led.sent_bits.tolist() == [120, 0, 30]
        assert led.received_bits.tolist() == [30, 50, 70]
        assert led.max_machine_received_bits == 70

    def test_wrong_shape_rejected(self):
        led = make_ledger(k=4)
        with pytest.raises(ValueError):
            led.charge_load_matrix("s", np.zeros((3, 3), dtype=np.int64))

    def test_totals_accumulate(self):
        led = make_ledger(k=2, bw=10)
        load = np.zeros((2, 2), dtype=np.int64)
        load[0, 1] = 25
        led.charge_load_matrix("a", load)
        led.charge_load_matrix("b", load)
        assert led.total_rounds == 6
        assert led.total_bits == 50
        assert len(led.steps) == 2


class TestChargeRounds:
    def test_external_rounds(self):
        led = make_ledger()
        led.charge_rounds("election", 3)
        assert led.total_rounds == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_ledger().charge_rounds("x", -1)


class TestBreakdownAndCut:
    def test_breakdown_groups_by_prefix(self):
        led = make_ledger(k=2, bw=10)
        load = np.zeros((2, 2), dtype=np.int64)
        load[0, 1] = 10
        led.charge_load_matrix("sketch:phase-1", load)
        led.charge_load_matrix("sketch:phase-2", load)
        led.charge_load_matrix("merge:phase-1", load)
        bd = led.breakdown()
        assert bd["sketch"] == 2
        assert bd["merge"] == 1

    def test_cut_bits(self):
        led = make_ledger(k=4, bw=10)
        load = np.zeros((4, 4), dtype=np.int64)
        load[0, 2] = 11  # A -> B
        load[3, 1] = 7  # B -> A
        load[0, 1] = 100  # inside A
        load[2, 3] = 100  # inside B
        led.charge_load_matrix("s", load)
        assert led.cut_bits(np.array([0, 1])) == 18
