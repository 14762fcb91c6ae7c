"""Differential hardening for the dynamic adversary (ISSUE-4 acceptance).

Every registered algorithm that reads the churn section x churn scenario
x 3 seeds must still match the sequential references in
:mod:`repro.graphs.reference` — byte-deterministically.  Partition epochs
are a *platform* adversary: migrations and machine churn may only degrade
rounds, never answers; any drift means the epoch model leaked into
algorithm control flow.

The REP baseline is excluded by design: it scatters *edges*, so there is
no vertex partition to re-shuffle, and it rejects churn plans explicitly
(pinned in ``tests/scenarios/test_churn.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.families import sized_graph
from repro.graphs import generators
from repro.graphs import reference as ref
from repro.runtime import ClusterConfig, RunConfig, Session
from repro.scenarios.registry import get_scenario

#: The two registered churn scenarios (ISSUE-4).
CHURN_SCENARIOS = ("rebalance_midrun", "churn_storm")
SEEDS = tuple(range(3))
K = 4
N_DEFAULT = 40
N_MINCUT = 24


def _graph(seed: int, *, n: int = N_DEFAULT, weighted: bool = False):
    g = generators.gnm_random(n, 3 * n, seed=seed)
    if weighted:
        g = generators.with_unique_weights(g, seed=seed)
    return g


def _config(seed: int, scenario: str, **kwargs) -> RunConfig:
    """The run config for ``seed`` with ``scenario``'s hostile axes overlaid."""
    return get_scenario(scenario).apply(RunConfig(seed=seed, cluster=ClusterConfig(k=K), **kwargs))


def _grid(algorithms):
    return [
        pytest.param(a, sc, id=f"{a}-{sc}")
        for a in algorithms
        for sc in CHURN_SCENARIOS
    ]


@pytest.mark.parametrize(
    "algorithm,scenario", _grid(["connectivity", "flooding", "referee"])
)
def test_component_labels_match_reference(algorithm, scenario):
    for seed in SEEDS:
        g = _graph(seed)
        expected = ref.connected_components(g).tolist()
        report = Session(g, config=_config(seed, scenario)).run(algorithm)
        assert report.result["labels"] == expected, (
            f"{algorithm} labels diverged under {scenario} seed {seed}"
        )
        assert report.result["n_components"] == int(np.unique(expected).size)
        # Short baselines (flooding/referee) may finish before the first
        # scheduled boundary; the epochs section must exist regardless,
        # and the multi-phase sketch algorithm always reaches the events.
        assert "epochs" in report.ledger
        if algorithm == "connectivity":
            assert report.ledger["epochs"]["events_fired"] >= 1


@pytest.mark.parametrize("algorithm,scenario", _grid(["mst", "boruvka_nosketch"]))
def test_mst_weight_matches_kruskal(algorithm, scenario):
    for seed in SEEDS:
        g = _graph(seed, weighted=True)
        forest = ref.kruskal_mst(g)
        report = Session(g, config=_config(seed, scenario)).run(algorithm)
        assert report.result["total_weight"] == ref.mst_weight(g, forest), (
            f"{algorithm} weight diverged under {scenario} seed {seed}"
        )
        assert report.result["n_edges"] == int(forest.size)


@pytest.mark.parametrize("scenario", CHURN_SCENARIOS)
def test_mincut_estimate_brackets_reference(scenario):
    for seed in SEEDS:
        g = _graph(seed, n=N_MINCUT)
        report = Session(g, config=_config(seed, scenario)).run("mincut")
        estimate = report.result["estimate"]
        if ref.count_components(g) > 1:
            assert estimate == 0.0
            continue
        truth = ref.stoer_wagner_mincut(g)
        envelope = 16.0 * np.log(g.n)
        assert truth / envelope <= estimate <= truth * envelope, (
            f"mincut estimate {estimate} outside envelope of {truth} "
            f"under {scenario} seed {seed}"
        )


@pytest.mark.parametrize("scenario", CHURN_SCENARIOS)
def test_verification_answers_match_reference(scenario):
    problems = ("bipartiteness", "cycle_containment", "st_connectivity")
    for seed in SEEDS:
        g = _graph(seed)
        problem = problems[seed % len(problems)]
        if problem == "bipartiteness":
            expected, params = ref.is_bipartite(g), {"problem": problem}
        elif problem == "cycle_containment":
            expected, params = ref.has_cycle(g), {"problem": problem}
        else:
            s_vtx, t_vtx = 0, g.n - 1
            expected = ref.st_connected(g, s_vtx, t_vtx)
            params = {"problem": problem, "s": s_vtx, "t": t_vtx}
        report = Session(g, config=_config(seed, scenario, params=params)).run("verify")
        assert report.result["answer"] == expected, (
            f"verify[{problem}] diverged under {scenario} seed {seed}"
        )


@pytest.mark.parametrize("scenario", CHURN_SCENARIOS)
def test_churned_runs_are_byte_deterministic(scenario):
    g = _graph(3)
    first = Session(g, config=_config(3, scenario)).run("connectivity")
    second = Session(g, config=_config(3, scenario)).run("connectivity")
    assert first.to_json(include_timing=False) == second.to_json(include_timing=False)


def test_churn_composes_with_worst_case_families_and_skew():
    # The full stack at once: worst-case input, skewed placement, faults
    # and churn — the everything-at-once regression the scenario engine
    # exists for.
    from repro.cluster.partition import PartitionConfig
    from repro.scenarios.registry import get_scenario

    storm = get_scenario("churn_storm")
    for seed in SEEDS:
        g = sized_graph("lollipop", N_DEFAULT, seed)
        cfg = storm.apply(
            RunConfig(
                seed=seed,
                cluster=ClusterConfig(
                    k=K, partition=PartitionConfig(scheme="powerlaw")
                ),
            )
        )
        report = Session(g, config=cfg).run("connectivity")
        assert report.result["labels"] == ref.connected_components(g).tolist()
        assert "faults" in report.ledger and "epochs" in report.ledger
