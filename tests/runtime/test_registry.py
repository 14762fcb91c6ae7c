"""Registry coverage: discovery, uniform runs, and wrapper equivalence."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro import KMachineCluster, connected_components_distributed, generators
from repro.core.labels import canonical_labels
from repro.core.mst import minimum_spanning_tree_distributed
from repro.graphs import reference
from repro.runtime import (
    ChurnPlan,
    ClusterConfig,
    ConfigError,
    FaultPlan,
    LogDiamConfig,
    RunConfig,
    RunReport,
    Session,
    UpdatePlan,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    run_algorithm,
)
from repro.runtime.registry import RunnerOutput, _REGISTRY
from repro.scenarios.churn import ChurnEvent
from repro.scenarios.updates import UpdateBatch

EXPECTED = {
    "connectivity",
    "mst",
    "mincut",
    "verify",
    "flooding",
    "boruvka_nosketch",
    "referee",
    "rep",
}


@pytest.fixture(scope="module")
def graph():
    return generators.planted_components(160, 2, seed=13)


@pytest.fixture(scope="module")
def weighted_graph():
    return generators.with_unique_weights(generators.gnm_random(120, 400, seed=13), seed=13)


class TestDiscovery:
    def test_all_expected_algorithms_registered(self):
        names = set(list_algorithms())
        assert EXPECTED <= names
        assert len(names) >= 7

    def test_listing_is_sorted(self):
        names = list_algorithms()
        assert names == sorted(names)

    def test_get_algorithm_metadata(self):
        spec = get_algorithm("connectivity")
        assert spec.name == "connectivity"
        assert spec.kind == "paper"
        assert not spec.needs_weights()
        assert get_algorithm("mst").needs_weights()
        assert not get_algorithm("rep").needs_weights()
        assert get_algorithm("rep").needs_weights({"mst": True})
        assert get_algorithm("flooding").kind == "baseline"

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="connectivity"):
            get_algorithm("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("connectivity", summary="dup")(lambda c, cfg, s: None)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_algorithm("x", summary="s", kind="magic")


class TestEveryAlgorithmRuns:
    """The acceptance criterion: each registered name runs on a small graph."""

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_runs_and_reports(self, name, graph, weighted_graph):
        g = weighted_graph if get_algorithm(name).needs_weights() else graph
        report = Session(g, config=RunConfig(seed=3, cluster=ClusterConfig(k=4))).run(name)
        assert isinstance(report, RunReport)
        assert report.algorithm == name
        assert report.seed == 3
        assert report.rounds > 0
        assert report.total_bits > 0
        assert report.graph["n"] == g.n
        # The envelope must round-trip losslessly.
        assert RunReport.from_json(report.to_json()).to_json() == report.to_json()

    @pytest.mark.parametrize(
        "name", sorted(n for n in EXPECTED if n not in ("mincut", "verify", "rep"))
    )
    def test_component_counts_match_reference(self, name, graph, weighted_graph):
        g = weighted_graph if get_algorithm(name).needs_weights() else graph
        report = Session(g, config=RunConfig(seed=3, cluster=ClusterConfig(k=4))).run(name)
        assert report.result["n_components"] == reference.count_components(g)


class TestUniformInterface:
    def test_run_algorithm_on_explicit_cluster(self, graph):
        cluster = KMachineCluster.create(graph, k=4, seed=3)
        report = run_algorithm("connectivity", cluster, RunConfig(seed=3))
        assert report.result["n_components"] == reference.count_components(graph)

    def test_ledger_delta_on_shared_cluster(self, graph):
        # A cluster with prior history reports only the run's own cost.
        cluster = KMachineCluster.create(graph, k=4, seed=3)
        first = run_algorithm("connectivity", cluster, RunConfig(seed=3))
        second = run_algorithm("flooding", cluster)
        assert second.rounds == cluster.ledger.total_rounds - first.rounds

    def test_weights_required_error(self, graph):
        cluster = KMachineCluster.create(graph, k=4, seed=3)
        with pytest.raises(ConfigError, match="weighted"):
            run_algorithm("mst", cluster)

    def test_verify_problem_dispatch(self, graph):
        cluster = KMachineCluster.create(graph, k=4, seed=3)
        report = run_algorithm(
            "verify", cluster, RunConfig(seed=3, params={"problem": "st_connectivity"})
        )
        assert report.result["problem"] == "st_connectivity"
        assert isinstance(report.result["answer"], bool)
        with pytest.raises(ConfigError, match="problem"):
            run_algorithm("verify", cluster, RunConfig(params={"problem": "nope"}))

    def test_runner_output_defaults(self):
        out = RunnerOutput(result={"x": 1})
        assert out.phase_stats == [] and out.ledger is None

    def test_mincut_honours_charge_shared_randomness(self, graph):
        # Provenance fields must actually reach the internal connectivity
        # tests, not just be recorded in the envelope.
        session = Session(graph, config=RunConfig(seed=3, cluster=ClusterConfig(k=4)))
        charged = session.run("mincut")
        uncharged = session.run(
            "mincut", config=session.config.with_overrides(charge_shared_randomness=False)
        )
        assert uncharged.rounds < charged.rounds


class TestWrapperEquivalence:
    """Legacy free functions and the Session path agree on a fixed seed."""

    def test_connectivity_equivalence(self, graph):
        cluster = KMachineCluster.create(graph, k=4, seed=7)
        legacy = connected_components_distributed(cluster, seed=7)
        report = Session(graph, config=RunConfig(seed=7, cluster=ClusterConfig(k=4))).run(
            "connectivity"
        )
        assert report.result["n_components"] == legacy.n_components
        assert report.result["labels"] == canonical_labels(legacy.labels).tolist()
        assert report.rounds == legacy.rounds
        assert report.result["phases"] == legacy.phases

    def test_mst_equivalence(self, weighted_graph):
        cluster = KMachineCluster.create(weighted_graph, k=4, seed=7)
        legacy = minimum_spanning_tree_distributed(cluster, seed=7)
        report = Session(
            weighted_graph, config=RunConfig(seed=7, cluster=ClusterConfig(k=4))
        ).run("mst")
        assert report.result["total_weight"] == legacy.total_weight
        assert report.result["n_edges"] == legacy.n_edges
        assert report.rounds == legacy.rounds
        assert report.result["edges_u"] == legacy.edges_u.tolist()

    def test_sketch_config_accepted_by_legacy_functions(self, graph):
        from repro.runtime import SketchConfig

        cluster = KMachineCluster.create(graph, k=4, seed=7)
        via_cfg = connected_components_distributed(
            cluster, seed=7, sketch=SketchConfig(repetitions=4)
        )
        cluster2 = KMachineCluster.create(graph, k=4, seed=7)
        via_kwargs = connected_components_distributed(cluster2, seed=7, repetitions=4)
        assert np.array_equal(via_cfg.labels, via_kwargs.labels)
        assert via_cfg.rounds == via_kwargs.rounds


def test_registry_is_not_mutated_by_lookups():
    before = dict(_REGISTRY)
    list_algorithms()
    get_algorithm("connectivity")
    assert _REGISTRY == before


#: One non-benign sample per optional RunConfig section.
NON_BENIGN_SECTIONS = {
    "faults": FaultPlan(drop_prob=0.05),
    "churn": ChurnPlan(events=(ChurnEvent(3, "reshuffle"),)),
    "updates": UpdatePlan(batches=(UpdateBatch(size=2),)),
    "logdiam": LogDiamConfig(space_bound=8),
}

#: The no-op value of each optional section.
BENIGN_SECTIONS = {
    "faults": FaultPlan(),
    "churn": ChurnPlan(),
    "updates": UpdatePlan(),
    "logdiam": LogDiamConfig(),
}


def test_section_acceptance_matrix():
    # A run that sets a non-benign section its algorithm does not read
    # fails with ConfigError; a benign section is accepted everywhere.
    g = generators.with_unique_weights(generators.gnm_random(40, 120, seed=0), seed=0)
    names = list_algorithms()

    def run(name, section, value):
        config = RunConfig(seed=1, cluster=ClusterConfig(k=4), **{section: value})
        try:
            return Session(g, config=config).run(name)
        except ConfigError:
            return None

    readers = {
        section: {name for name in names if run(name, section, value) is not None}
        for section, value in NON_BENIGN_SECTIONS.items()
    }
    assert readers == {
        "faults": set(names),
        "churn": set(names) - {"rep"},
        "updates": {"mst_dynamic"},
        "logdiam": {"connectivity_logdiam"},
    }
    for section, value in BENIGN_SECTIONS.items():
        for name in names:
            report = run(name, section, value)
            assert report is not None, (name, section)
            assert report.config[section] == asdict(value)


def test_unknown_section_rejected_at_registration():
    with pytest.raises(ValueError, match="unknown config sections"):
        register_algorithm("x", summary="s", sections=("faults", "update"))
