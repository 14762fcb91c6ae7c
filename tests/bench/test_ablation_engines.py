"""The engines ablation's exact mailbox flood (AB-1).

``ablation_engines`` runs label flooding message by message on
:class:`~repro.cluster.engine.SyncEngine` and compares its rounds with the
bulk ledger's.  Labels cross one edge per engine round, so the exact run
can never beat the bulk schedule and tracks the graph's diameter.
"""

from __future__ import annotations

import pytest

from repro.bench.suites.ablations import _engine_flooding_rounds, _engines_agree
from repro.cluster.cluster import KMachineCluster
from repro.graphs import generators as gen


@pytest.mark.parametrize(
    "cell, seed",
    [
        ({"workload": "gnm", "n": 64, "m_mult": 4, "k": 4}, 1),
        ({"workload": "gnm", "n": 64, "m_mult": 4, "k": 4}, 2),
        ({"workload": "gnm", "n": 64, "m_mult": 4, "k": 4}, 3),
        ({"workload": "path", "n": 64, "k": 4}, 21),
        ({"workload": "star", "n": 64, "k": 4}, 21),
    ],
)
def test_exact_rounds_within_a_constant_of_bulk(cell, seed):
    out = _engines_agree(cell, seed)
    assert out["bulk_rounds"] <= out["engine_rounds"] <= 4 * out["bulk_rounds"] + 8
    assert out["ratio"] == out["engine_rounds"] / out["bulk_rounds"]


def test_path_takes_a_round_per_hop():
    g = gen.path_graph(40)
    assert _engine_flooding_rounds(g, KMachineCluster.create(g, k=4, seed=1)) >= 39


def test_rounds_track_diameter():
    shallow = gen.gnm_random(200, 2000, seed=3)
    deep = gen.path_graph(200)
    r_shallow = _engine_flooding_rounds(shallow, KMachineCluster.create(shallow, k=4, seed=3))
    r_deep = _engine_flooding_rounds(deep, KMachineCluster.create(deep, k=4, seed=3))
    assert r_deep > 3 * r_shallow


def test_disconnected_graph_terminates():
    # Two 10-vertex paths: each floods its own minimum, and the run stops
    # once the longer of the two diameters has been crossed.
    g = gen.disjoint_union([gen.path_graph(10), gen.path_graph(10)])
    rounds = _engine_flooding_rounds(g, KMachineCluster.create(g, k=4, seed=2))
    assert 9 <= rounds < 20
