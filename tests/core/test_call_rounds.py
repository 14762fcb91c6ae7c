"""Every result reports the rounds its own call charged.

A derived instance (``KMachineCluster.with_graph``) shares its parent's
ledger, and a cluster can serve several runs, so the ledger may already
hold steps when an algorithm starts.  A result's ``rounds`` is the call's
own ledger delta, never the ledger's running total.
"""

from __future__ import annotations

import pytest

from repro.baselines.boruvka_nosketch import boruvka_nosketch
from repro.baselines.flooding import flooding_connectivity
from repro.baselines.referee import referee_connectivity
from repro.cluster.cluster import KMachineCluster
from repro.core.connectivity import (
    component_sizes_distributed,
    connected_components_distributed,
    count_components_distributed,
)
from repro.core.logdiam import logdiam_connectivity
from repro.core.mincut import mincut_approx_distributed
from repro.core.mst import minimum_spanning_tree_distributed
from repro.graphs import generators as gen

CALLS = {
    "connectivity": lambda cl: connected_components_distributed(cl, seed=5),
    "component_sizes": lambda cl: component_sizes_distributed(cl, seed=5)[1],
    "count_components": lambda cl: count_components_distributed(cl, seed=5)[1],
    "mst": lambda cl: minimum_spanning_tree_distributed(cl, seed=5),
    "mincut": lambda cl: mincut_approx_distributed(cl, seed=5),
    "logdiam_dense": lambda cl: logdiam_connectivity(cl),
    "logdiam_sparse": lambda cl: logdiam_connectivity(cl, space_bound=16),
    "flooding": flooding_connectivity,
    "referee": referee_connectivity,
    "boruvka_nosketch": lambda cl: boruvka_nosketch(cl, seed=5),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_rounds_are_the_calls_own_ledger_delta(name):
    g = gen.with_unique_weights(gen.gnm_random(300, 900, seed=3), seed=3)
    cluster = KMachineCluster.create(g, k=4, seed=3)
    connected_components_distributed(cluster.with_graph(g), seed=1)  # an earlier derived run
    before = cluster.ledger.total_rounds
    res = CALLS[name](cluster.with_graph(g))
    assert before > 0
    assert res.rounds == cluster.ledger.total_rounds - before > 0


def test_mincut_total_is_the_sum_of_its_levels():
    g = gen.gnm_random(300, 900, seed=3)
    cluster = KMachineCluster.create(g, k=4, seed=3)
    connected_components_distributed(cluster, seed=1)
    res = mincut_approx_distributed(cluster, seed=5)
    assert len(res.levels) > 1
    assert res.rounds == sum(level.rounds for level in res.levels)
