"""CLI smoke tests: list / run / sweep through ``repro.cli.main``."""

from __future__ import annotations

import json

from repro.cli import main
from repro.corpus.inputs import resolve_input
from repro.runtime import ClusterConfig, RunConfig, RunReport, Session, list_algorithms
from repro.scenarios.registry import get_scenario


def test_list_names_every_algorithm(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in list_algorithms():
        assert name in out


def test_run_connectivity(capsys):
    assert main(["run", "connectivity", "--n", "120", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "connectivity" in out and "n_components" in out


def test_run_emits_loadable_report_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        ["run", "mst", "--n", "80", "--k", "4", "--seed", "3", "--json", str(path)]
    )
    assert code == 0
    report = RunReport.from_json(path.read_text())
    assert report.algorithm == "mst"
    assert report.seed == 3
    assert report.graph["weighted"] is True  # auto-weighted for MST


def test_run_param_passthrough(capsys):
    code = main(
        ["run", "verify", "--n", "60", "--k", "4", "--param", "problem=cycle_containment"]
    )
    assert code == 0
    assert "answer" in capsys.readouterr().out


def test_run_logdiam_with_knobs(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        [
            "run", "connectivity_logdiam", "--n", "80", "--k", "4",
            "--graph", "lollipop", "--space-bound", "8",
            "--doubling-budget", "50", "--json", str(path),
        ]
    )
    assert code == 0
    report = RunReport.from_json(path.read_text())
    assert report.algorithm == "connectivity_logdiam"
    assert report.result["space_bound"] == 8
    assert report.result["converged"]
    assert report.config["logdiam"] == {"space_bound": 8, "doubling_budget": 50}


def test_run_logdiam_knobs_rejected_elsewhere(capsys):
    code = main(["run", "connectivity", "--n", "60", "--k", "4", "--space-bound", "8"])
    assert code == 2
    assert "logdiam" in capsys.readouterr().err


def test_run_without_logdiam_knobs_records_no_section(tmp_path, capsys):
    # Unset knobs make a benign section, which the CLI leaves unset so
    # the envelope carries no logdiam key at all.
    path = tmp_path / "report.json"
    code = main(["run", "connectivity_logdiam", "--n", "60", "--k", "4", "--json", str(path)])
    assert code == 0
    assert "logdiam" not in RunReport.from_json(path.read_text()).config


def test_run_unknown_algorithm_fails_cleanly(capsys):
    assert main(["run", "nope", "--n", "50"]) == 2
    assert "available" in capsys.readouterr().err


def test_sweep_grid(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "connectivity",
            "--n",
            "100",
            "--ks",
            "2,4",
            "--seeds",
            "0,1",
            "--json",
            str(path),
        ]
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data) == 4
    assert {(d["graph"]["k"], d["seed"]) for d in data} == {(2, 0), (2, 1), (4, 0), (4, 1)}


def test_sweep_json_is_always_an_array(tmp_path, capsys):
    # A one-point grid must still serialize as a list — stable output shape.
    path = tmp_path / "one.json"
    assert main(["sweep", "connectivity", "--n", "80", "--k", "4", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == 1


def test_sweep_over_n(capsys):
    code = main(["sweep", "connectivity", "--ns", "60,120", "--k", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n=60" in out and "n=120" in out


def test_sweep_under_a_scenario_matches_the_library_composition(tmp_path, capsys):
    # `repro sweep --scenario` is resolve_input plus Scenario.apply, point by point.
    path = tmp_path / "sweep.json"
    argv = ["sweep", "connectivity", "--ns", "60,120", "--k", "4", "--scenario", "faulty_links"]
    assert main([*argv, "--json", str(path)]) == 0
    cli = json.loads(path.read_text())
    assert [d["graph"]["n"] for d in cli] == [60, 120]
    assert all("faults" in d["ledger"] for d in cli)
    for d in cli:
        del d["wall_time_s"]
    sc = get_scenario("faulty_links")
    session = Session(config=sc.apply(RunConfig(cluster=ClusterConfig(k=4))))
    local = [
        session.run(
            "connectivity", resolve_input(scenario=sc, n=n, algorithm="connectivity")
        ).to_dict(include_timing=False)
        for n in (60, 120)
    ]
    assert json.dumps(cli, sort_keys=True) == json.dumps(local, sort_keys=True)
