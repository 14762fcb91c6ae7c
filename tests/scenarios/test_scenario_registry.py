"""Tests for the scenario registry, Session integration, and the CLI verbs."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.cluster.partition import PartitionConfig
from repro.corpus.families import sized_graph
from repro.corpus.inputs import resolve_input
from repro.graphs import generators
from repro.graphs import reference as ref
from repro.runtime import ClusterConfig, RunConfig, Session
from repro.scenarios import FaultPlan
from repro.scenarios.registry import Scenario, get_scenario, list_scenarios, register_scenario


class TestRegistry:
    def test_builtins_present(self):
        names = list_scenarios()
        for expected in (
            "faulty_links",
            "stragglers",
            "throttled",
            "skew_powerlaw",
            "skew_locality",
            "adversarial_placement",
            "lollipop",
            "barbell",
            "expander_bridge",
            "disjoint_cliques",
            "star_of_paths",
            "worst_case_storm",
        ):
            assert expected in names

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="available:"):
            get_scenario("does_not_exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(Scenario("faulty_links", "dup"))

    def test_instances_pass_through(self):
        sc = Scenario("inline", "ad-hoc", family="lollipop")
        assert get_scenario(sc) is sc

    def test_apply_composes_with_caller_axes(self):
        # A graph-only scenario must not clobber a caller-configured
        # hostile network or placement with its own benign defaults.
        user = RunConfig(
            seed=1,
            cluster=ClusterConfig(k=4, partition=PartitionConfig(scheme="powerlaw")),
            faults=FaultPlan(drop_prob=0.25),
        )
        applied = get_scenario("lollipop").apply(user)
        assert applied.faults == FaultPlan(drop_prob=0.25)
        assert applied.cluster.partition.scheme == "powerlaw"
        # But a scenario that DOES specify an axis wins over the caller.
        storm = get_scenario("worst_case_storm").apply(user)
        assert storm.faults == get_scenario("worst_case_storm").faults
        assert storm.cluster.partition.scheme == "powerlaw"  # storm's own

    def test_apply_overlays_partition_and_faults_only(self):
        sc = get_scenario("worst_case_storm")
        base = RunConfig(seed=42, cluster=ClusterConfig(k=16, bandwidth_multiplier=32))
        applied = sc.apply(base)
        assert applied.cluster.partition == sc.partition
        assert applied.faults == sc.faults
        # Everything else preserved.
        assert applied.seed == 42
        assert applied.cluster.k == 16
        assert applied.cluster.bandwidth_multiplier == 32

    def test_make_graph_scales_and_weights(self):
        sc = get_scenario("lollipop")
        g = resolve_input(scenario=sc, n=60, seed=1)
        assert abs(g.n - 60) <= 2
        assert g.weighted  # scenarios default to weighted inputs
        g2 = resolve_input(scenario=sc, n=60, seed=1)
        assert (g.edges_u == g2.edges_u).all()  # deterministic


class TestWorstCaseFamilies:
    @pytest.mark.parametrize(
        "family", ("barbell", "disjoint_cliques", "expander_bridge", "lollipop", "star_of_paths")
    )
    def test_family_builds_at_requested_scale(self, family):
        g = sized_graph(family, 64, 3)
        assert 0 < g.n <= 80
        assert g.m > 0

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="available:"):
            sized_graph("moebius", 64)

    def test_lollipop_shape(self):
        g = generators.lollipop(10, 5)
        assert g.n == 15
        assert g.m == 45 + 5  # K_10 plus the tail path

    def test_star_of_paths_shape(self):
        g = generators.star_of_paths(4, 6)
        assert g.n == 25
        assert g.m == 24
        assert int(g.degree(0)) == 4
        assert ref.is_connected(g)

    def test_disjoint_cliques_component_count(self):
        g = generators.disjoint_cliques(5, 4)
        assert g.n == 20
        assert ref.count_components(g) == 5

    def test_expander_bridge_has_bridge_mincut(self):
        g = generators.expander_bridge(60, seed=1)
        assert ref.is_connected(g)
        weighted = g.with_weights(__import__("numpy").ones(g.m))
        assert ref.stoer_wagner_mincut(weighted) == 1.0


def _bytes(g) -> tuple:
    return g.n, g.weighted, g.edges_u.tobytes(), g.edges_v.tobytes(), g.weights.tobytes()


class TestSessionScenario:
    """A scenario run composes ``resolve_input`` with ``Scenario.apply``."""

    def test_run_with_scenario_name(self):
        # The registered name alone names both halves of the run: the
        # input (the scenario's lollipop family) and the overlaid axes.
        g = resolve_input(scenario="worst_case_storm", n=80, seed=2, algorithm="connectivity")
        assert _bytes(g) == _bytes(resolve_input(family="lollipop", n=80, seed=2, weighted=True))
        config = get_scenario("worst_case_storm").apply(
            RunConfig(seed=2, cluster=ClusterConfig(k=4))
        )
        report = Session(g, config=config).run("connectivity")
        assert report.config["cluster"]["partition"]["scheme"] == "powerlaw"
        assert report.ledger["faults"]["n_events"] >= 0
        assert report.result["n_components"] >= 1

    def test_run_scenario_answers_match_reference(self):
        sc = get_scenario("worst_case_storm")
        g = resolve_input(scenario=sc, n=80, seed=2, algorithm="connectivity")
        config = sc.apply(RunConfig(seed=2, cluster=ClusterConfig(k=4)))
        report = Session(g, config=config).run("connectivity")
        assert report.config["cluster"]["partition"]["scheme"] == "powerlaw"
        assert report.ledger["faults"]["n_events"] >= 0
        assert report.result["labels"] == ref.connected_components(g).tolist()

    def test_sweep_with_scenario_over_ns(self):
        sc = get_scenario("faulty_links")
        session = Session(config=sc.apply(RunConfig(seed=1, cluster=ClusterConfig(k=4))))
        reports = session.sweep(
            "connectivity",
            ns=(40, 60),
            graph_factory=lambda n: resolve_input(scenario=sc, n=n, seed=1),
        )
        assert len(reports) == 2
        assert [r.graph["n"] for r in reports] == sorted(r.graph["n"] for r in reports)
        for r in reports:
            assert "faults" in r.ledger

    def test_explicit_graph_wins_over_scenario_family(self):
        # An explicit family outranks the scenario's in the resolver, and
        # the graph handed to Session is the graph that runs.
        g = resolve_input(family="path", scenario="lollipop", n=30, seed=1)
        assert (g.n, g.m) == (30, 29)  # the path, not a lollipop
        config = get_scenario("lollipop").apply(RunConfig(seed=1, cluster=ClusterConfig(k=4)))
        report = Session(generators.path_graph(30), config=config).run("connectivity")
        assert report.graph["n"] == 30

    def test_family_scenario_overrides_session_default_graph(self):
        # A family-bearing scenario must never be a silent no-op: it
        # replaces the resolver's default G(n, 3n) input.
        g = resolve_input(scenario="lollipop", n=60, seed=1)
        assert _bytes(g) != _bytes(resolve_input(n=60, seed=1, weighted=True))
        assert _bytes(g) == _bytes(resolve_input(family="lollipop", n=60, seed=1, weighted=True))
        report = Session(g, config=RunConfig(seed=1, cluster=ClusterConfig(k=4))).run(
            "connectivity"
        )
        assert report.graph["n"] == g.n
        assert report.graph["m"] > report.graph["n"]  # lollipop clique, not a path

    def test_family_less_scenario_uses_session_graph(self):
        g = generators.path_graph(30)
        config = get_scenario("faulty_links").apply(RunConfig(seed=1, cluster=ClusterConfig(k=4)))
        report = Session(g, config=config).run("connectivity")
        assert report.graph["n"] == 30  # the session graph, faults overlaid
        assert "faults" in report.ledger


class TestCli:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "worst_case_storm" in out
        assert "faults" in out

    def test_scenarios_show_dumps_full_plan_json(self, capsys):
        import json

        from repro.cluster.partition import PartitionConfig
        from repro.scenarios.churn import ChurnPlan
        from repro.scenarios.faults import FaultPlan

        assert main(["scenarios", "show", "churn_storm"]) == 0
        plan = json.loads(capsys.readouterr().out)
        sc = get_scenario("churn_storm")
        assert plan["name"] == "churn_storm"
        assert plan["summary"] == sc.summary
        # Every axis round-trips through its own from_dict form, so the
        # dump alone reconstructs the exact hostile condition.
        assert FaultPlan.from_dict(plan["faults"]) == sc.faults
        assert ChurnPlan.from_dict(plan["churn"]) == sc.churn
        assert PartitionConfig.from_dict(plan["partition"]) == sc.partition

    def test_scenarios_show_renders_updates_axis(self, capsys):
        import json

        from repro.scenarios.updates import UpdatePlan

        assert main(["scenarios", "show", "update_storm"]) == 0
        plan = json.loads(capsys.readouterr().out)
        sc = get_scenario("update_storm")
        assert UpdatePlan.from_dict(plan["updates"]) == sc.updates
        assert plan["updates"]["batches"], "update_storm must carry a non-benign plan"
        # The listing tags the axis so `scenarios list | grep updates` works.
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        storm_line = next(line for line in out.splitlines() if "update_storm" in line)
        assert "updates" in storm_line
        live_line = next(line for line in out.splitlines() if "live_graph" in line)
        assert "faults" in live_line and "updates" in live_line

    def test_scenarios_show_family_and_absent_axes(self, capsys):
        import json

        assert main(["scenarios", "show", "lollipop"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["family"] == "lollipop"
        assert plan["faults"] is None and plan["churn"] is None
        assert plan["updates"] is None

    def test_scenarios_show_unknown_is_usage_error(self, capsys):
        assert main(["scenarios", "show", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_with_scenario(self, capsys):
        code = main(
            ["run", "connectivity", "--n", "80", "--k", "4", "--scenario", "faulty_links"]
        )
        assert code == 0
        assert "connectivity on" in capsys.readouterr().out

    def test_run_with_worst_case_family(self, capsys):
        assert main(["run", "connectivity", "--n", "60", "--graph", "star_of_paths"]) == 0
        assert "n_components=1" in capsys.readouterr().out

    def test_run_unknown_scenario_is_usage_error(self, capsys):
        assert main(["run", "connectivity", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenario_graph_respects_explicit_graph(self, capsys):
        code = main(
            [
                "run",
                "connectivity",
                "--n",
                "40",
                "--graph",
                "path",
                "--scenario",
                "faulty_links",
            ]
        )
        assert code == 0
        assert "m=39" in capsys.readouterr().out
