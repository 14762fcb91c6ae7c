"""RunReport envelope: serialization, round-tripping, and ledger snapshots."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import KMachineCluster, generators
from repro.runtime import RunConfig, RunReport, Session
from repro.runtime.report import jsonify


class TestJsonify:
    def test_numpy_arrays_become_lists(self):
        out = jsonify({"a": np.arange(3, dtype=np.int64), "b": np.float64(2.5)})
        assert out == {"a": [0, 1, 2], "b": 2.5}
        assert all(isinstance(v, int) for v in out["a"])

    def test_nested_structures(self):
        out = jsonify([(np.int32(1), {"x": np.bool_(True)})])
        assert out == [[1, {"x": True}]]
        assert isinstance(out[0][1]["x"], bool)

    def test_plain_values_untouched(self):
        assert jsonify({"s": "text", "n": None, "f": 1.5}) == {"s": "text", "n": None, "f": 1.5}


class TestLedgerTotals:
    def test_totals_match_ledger_properties(self):
        g = generators.gnm_random(80, 240, seed=2)
        cluster = KMachineCluster.create(g, k=4, seed=2)
        from repro import connected_components_distributed

        connected_components_distributed(cluster, seed=2)
        totals = cluster.ledger.totals()
        assert totals["rounds"] == cluster.ledger.total_rounds
        assert totals["total_bits"] == cluster.ledger.total_bits
        assert totals["n_steps"] == len(cluster.ledger.steps)
        assert totals["breakdown"] == {
            k: v for k, v in sorted(cluster.ledger.breakdown().items())
        }
        assert 0 <= totals["work_rounds"] <= totals["rounds"]


@pytest.fixture(scope="module")
def report():
    g = generators.gnm_random(100, 300, seed=5)
    return Session(g, config=RunConfig(seed=5)).run("connectivity")


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self, report):
        restored = RunReport.from_json(report.to_json())
        assert restored == report
        assert restored.to_json() == report.to_json()

    def test_dict_round_trip(self, report):
        assert RunReport.from_dict(report.to_dict()) == report

    def test_json_is_valid_and_sorted(self, report):
        data = json.loads(report.to_json())
        assert list(data) == sorted(data)
        assert data["schema"] == 1

    def test_include_timing_false_drops_only_wall_time(self, report):
        with_timing = json.loads(report.to_json())
        without = json.loads(report.to_json(include_timing=False))
        assert "wall_time_s" not in without
        with_timing.pop("wall_time_s")
        assert with_timing == without

    def test_missing_wall_time_defaults(self, report):
        d = report.to_dict(include_timing=False)
        assert RunReport.from_dict(d).wall_time_s == 0.0


class TestConvenience:
    def test_properties_mirror_ledger_section(self, report):
        assert report.rounds == report.ledger["rounds"]
        assert report.work_rounds == report.ledger["work_rounds"]
        assert report.total_bits == report.ledger["total_bits"]

    def test_summary_mentions_the_essentials(self, report):
        text = report.summary()
        assert "connectivity" in text
        assert "n_components" in text
        assert f"seed {report.seed}" in text
