"""Session runner: cluster caching, seed precedence in practice, and sweeps."""

from __future__ import annotations

import pytest

from repro import generators
from repro.runtime import ClusterConfig, RunConfig, Session

CFG = RunConfig(seed=4, cluster=ClusterConfig(k=4))


@pytest.fixture(scope="module")
def graph():
    return generators.gnm_random(150, 450, seed=4)


class TestClusterCache:
    def test_same_key_reuses_cluster(self, graph):
        session = Session(graph, config=CFG)
        c1 = session.cluster_for(graph, CFG.cluster, 4)
        c2 = session.cluster_for(graph, CFG.cluster, 4)
        assert c1 is c2

    def test_reuse_resets_ledger(self, graph):
        session = Session(graph, config=CFG)
        first = session.run("connectivity")
        second = session.run("connectivity")
        # Identical cost both times: the cached cluster started fresh.
        assert first.rounds == second.rounds

    def test_different_seed_builds_new_partition(self, graph):
        session = Session(graph, config=CFG)
        c1 = session.cluster_for(graph, CFG.cluster, 4)
        c2 = session.cluster_for(graph, CFG.cluster, 5)
        assert c1 is not c2

    def test_pinned_partition_seed_shared_across_run_seeds(self, graph):
        cc = ClusterConfig(k=4, partition_seed=99)
        session = Session(graph)
        assert session.cluster_for(graph, cc, 1) is session.cluster_for(graph, cc, 2)

    def test_pinned_bandwidth_bits(self, graph):
        session = Session(graph)
        cc = ClusterConfig(k=4, bandwidth_bits=512)
        cluster = session.cluster_for(graph, cc, 4)
        assert cluster.topology.bandwidth_bits == 512
        # A different pin is a different cache entry.
        other = session.cluster_for(graph, ClusterConfig(k=4, bandwidth_bits=1024), 4)
        assert other is not cluster

    def test_clear_cache(self, graph):
        session = Session(graph, config=CFG)
        c1 = session.cluster_for(graph, CFG.cluster, 4)
        session.clear_cache()
        assert session.cluster_for(graph, CFG.cluster, 4) is not c1

    def test_cache_is_bounded(self, graph):
        session = Session(graph, config=CFG, max_clusters=2)
        for seed in range(4):
            session.cluster_for(graph, CFG.cluster, seed)
        assert len(session._clusters) == 2

    def test_rep_runs_on_the_cached_cluster(self, graph):
        session = Session(graph, config=CFG)
        report = session.run("rep")
        (cluster,) = [entry[1] for entry in session._clusters.values()]
        # Every step REP charged, the reroute and its RVP run, is on the
        # cached cluster's ledger.
        assert report.rounds == cluster.ledger.total_rounds > 0
        assert cluster.ledger.steps[0].label == "rep:reroute"

    def test_sweep_factory_graphs_not_cached(self):
        session = Session(config=CFG)
        session.sweep(
            "connectivity",
            ns=(64, 96),
            graph_factory=lambda n: generators.gnm_random(n, 3 * n, seed=1),
        )
        assert session._clusters == {}


class TestRun:
    def test_missing_graph_raises(self):
        with pytest.raises(ValueError, match="no graph"):
            Session().run("connectivity")

    def test_per_run_seed_overrides_config_seed(self, graph):
        session = Session(graph, config=CFG)
        assert session.run("connectivity").seed == 4
        assert session.run("connectivity", seed=11).seed == 11

    def test_call_config_overrides_session_config(self, graph):
        session = Session(graph, config=CFG)
        report = session.run(
            "connectivity", config=RunConfig(seed=4, cluster=ClusterConfig(k=8))
        )
        assert report.graph["k"] == 8

    def test_graph_override(self, graph):
        other = generators.planted_components(90, 3, seed=1)
        report = Session(graph, config=CFG).run("connectivity", other)
        assert report.result["n_components"] == 3

    def test_named_input_raises_type_error_naming_the_resolver(self, graph):
        # A session runs a Graph; a name (here a corpus entry) must go
        # through resolve_input first, and the error says so up front.
        name = "corpus:gnm/d6b1429151d9_0"
        with pytest.raises(TypeError, match="resolve_input"):
            Session(graph, config=CFG).run("connectivity", name)
        with pytest.raises(TypeError, match="resolve_input"):
            Session(name, config=CFG).run("connectivity")
        with pytest.raises(TypeError, match="resolve_input"):
            Session(config=CFG).sweep("connectivity", graph=name)


class TestSweep:
    def test_grid_order_and_size(self, graph):
        session = Session(graph, config=CFG)
        reports = session.sweep("connectivity", ks=(2, 4), seeds=(0, 1))
        assert [(r.graph["k"], r.seed) for r in reports] == [
            (2, 0),
            (2, 1),
            (4, 0),
            (4, 1),
        ]

    def test_defaults_fill_from_config(self, graph):
        session = Session(graph, config=CFG)
        reports = session.sweep("connectivity")
        assert len(reports) == 1
        assert reports[0].seed == 4 and reports[0].graph["k"] == 4

    def test_n_sweep_needs_factory(self, graph):
        with pytest.raises(ValueError, match="graph_factory"):
            Session(graph, config=CFG).sweep("connectivity", ns=(64, 128))

    def test_n_sweep_with_a_fixed_graph_raises(self, graph):
        # Sweeping ns builds every graph from the factory; a fixed graph
        # beside it would be ignored.
        with pytest.raises(ValueError, match="drop graph"):
            Session(config=CFG).sweep(
                "connectivity",
                ns=(40,),
                graph=graph,
                graph_factory=lambda n: generators.gnm_random(n, 3 * n, seed=1),
            )

    def test_factory_without_ns_raises(self, graph):
        # Without ns the sweep runs one fixed graph; a factory beside it
        # would be ignored.
        with pytest.raises(ValueError, match="needs ns"):
            Session(config=CFG).sweep(
                "connectivity",
                graph=graph,
                graph_factory=lambda n: generators.gnm_random(n, 3 * n, seed=1),
            )
        with pytest.raises(ValueError, match="needs ns"):
            Session(graph, config=CFG).sweep(
                "connectivity", graph_factory=lambda n: generators.gnm_random(n, 3 * n, seed=1)
            )

    def test_n_sweep(self):
        session = Session(config=CFG)
        reports = session.sweep(
            "connectivity",
            ns=(64, 128),
            graph_factory=lambda n: generators.gnm_random(n, 3 * n, seed=1),
        )
        assert [r.graph["n"] for r in reports] == [64, 128]

    def test_process_pool_matches_sequential(self, graph):
        session = Session(graph, config=CFG)
        seq = session.sweep("connectivity", ks=(2, 4), seeds=(0, 1))
        par = session.sweep("connectivity", ks=(2, 4), seeds=(0, 1), processes=2)
        assert [r.to_json(include_timing=False) for r in seq] == [
            r.to_json(include_timing=False) for r in par
        ]
