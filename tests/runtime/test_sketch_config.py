"""SketchConfig is the one way sketch parameters reach the algorithms.

A run's ``config.sketch`` must reach every ``SketchSpec`` the run builds,
through every registry entry that sketches; an invalid one must fail with
``ConfigError`` before the run charges a single step.
"""

from __future__ import annotations

import pytest

from repro import KMachineCluster, generators
from repro.core.connectivity import connected_components_distributed
from repro.core.dynamic import dynamic_msf_updates
from repro.core.mincut import mincut_approx_distributed
from repro.core.mst import minimum_spanning_tree_distributed
from repro.runtime import ClusterConfig, ConfigError, RunConfig, Session, SketchConfig
from repro.sketch.l0 import SketchSpec

#: A sketch config off both package defaults.
SKETCH = SketchConfig(repetitions=2, hash_family="polynomial")

#: test id -> (registry name, params) of every run that builds sketches.
SKETCHING_RUNS = {
    "connectivity": ("connectivity", {}),
    "mst": ("mst", {}),
    "mincut": ("mincut", {}),
    "mst_dynamic": ("mst_dynamic", {}),
    "verify-bipartiteness": ("verify", {"problem": "bipartiteness"}),
    "verify-cycle_containment": ("verify", {"problem": "cycle_containment"}),
    "verify-st_connectivity": ("verify", {"problem": "st_connectivity"}),
    "rep": ("rep", {}),
    "rep-mst": ("rep", {"mst": True}),
}

#: The four sketch-based entry points, each on a weighted 60-vertex graph.
ENTRY_POINTS = {
    "connectivity": connected_components_distributed,
    "mst": minimum_spanning_tree_distributed,
    "mincut": mincut_approx_distributed,
    "mst_dynamic": dynamic_msf_updates,
}


@pytest.fixture(scope="module")
def graph():
    return generators.with_unique_weights(generators.gnm_random(60, 180, seed=5), seed=5)


@pytest.mark.parametrize("run", sorted(SKETCHING_RUNS))
def test_run_sketch_reaches_every_spec(graph, monkeypatch, run):
    name, params = SKETCHING_RUNS[run]
    seen = []
    for_graph = SketchSpec.for_graph

    def spy(n, seed, repetitions, hash_family):
        # No defaults: a caller that drops either value fails here.
        seen.append((repetitions, hash_family))
        return for_graph(n, seed, repetitions, hash_family)

    monkeypatch.setattr(SketchSpec, "for_graph", staticmethod(spy))
    config = RunConfig(seed=3, cluster=ClusterConfig(k=4), sketch=SKETCH, params=params)
    Session(graph, config=config).run(name)
    assert seen, "the run built no sketch"
    assert set(seen) == {(SKETCH.repetitions, SKETCH.hash_family)}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad", [SketchConfig(repetitions=0), SketchConfig(hash_family="md5")], ids=["reps", "family"]
)
def test_invalid_sketch_fails_before_any_step(graph, entry, bad):
    cluster = KMachineCluster.create(graph, k=4, seed=3)
    with pytest.raises(ConfigError):
        ENTRY_POINTS[entry](cluster, 3, sketch=bad)
    assert cluster.ledger.steps == []
    assert cluster.ledger.total_rounds == 0
