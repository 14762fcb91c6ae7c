"""One nominal input, one graph: the CLI, the service and the resolver agree.

Each surface names its input by family, scenario, size and seed, and all
of them resolve it through :func:`repro.corpus.inputs.resolve_input`.
The graphs are captured where an algorithm receives them, so the CLI
cases run the real ``repro run`` parser and input path end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.corpus.families import sizeable_families
from repro.corpus.inputs import resolve_input
from repro.runtime.registry import AlgorithmSpec
from repro.scenarios.registry import list_scenarios
from repro.service.protocol import RunRequest

N = 64


def _bytes(g) -> tuple:
    return g.n, g.weighted, g.edges_u.tobytes(), g.edges_v.tobytes(), g.weights.tobytes()


@pytest.fixture
def received(monkeypatch):
    """Every graph an algorithm run receives, in call order."""
    graphs = []
    original = AlgorithmSpec.run

    def run(self, cluster, config=None, *, seed=None):
        graphs.append(cluster.graph)
        return original(self, cluster, config, seed=seed)

    monkeypatch.setattr(AlgorithmSpec, "run", run)
    return graphs


def _cli_graph(received, *argv: str):
    assert main(["run", *argv, "--n", str(N), "--k", "4"]) == 0
    return received[-1]


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("family", sizeable_families())
def test_cli_service_and_resolver_build_one_graph(received, family, seed, weighted):
    flags = ["--weighted"] if weighted else []
    cli = _cli_graph(received, "connectivity", "--graph", family, "--seed", str(seed), *flags)
    served = RunRequest(
        algorithm="connectivity", family=family, n=N, seed=seed, weighted=weighted
    ).build_graph()
    resolved = resolve_input(
        family=family, n=N, seed=seed, weighted=weighted, algorithm="connectivity"
    )
    assert _bytes(cli) == _bytes(served) == _bytes(resolved)


def test_explicit_family_beats_the_scenario_family(received):
    cli = _cli_graph(
        received, "mst", "--scenario", "lollipop", "--graph", "expander_bridge", "--seed", "3"
    )
    served = RunRequest(
        algorithm="mst", scenario="lollipop", family="expander_bridge", n=N, seed=3
    ).build_graph()
    assert _bytes(cli) == _bytes(served)
    assert cli.n == N and cli.weighted


def test_graph_seed_takes_the_run_seeds_place(received):
    cli = _cli_graph(received, "connectivity", "--graph", "gnm", "--graph-seed", "5", "--seed", "9")
    served = RunRequest(family="gnm", n=N, seed=5, weighted=False).build_graph()
    assert _bytes(cli) == _bytes(served)


def test_family_less_scenario_matches_session(received):
    # A scenario without a family builds the benign input, weighted as the
    # scenario asks, on every surface.
    cli = _cli_graph(received, "connectivity", "--scenario", "faulty_links", "--seed", "3")
    served = RunRequest(
        algorithm="connectivity", scenario="faulty_links", n=N, seed=3
    ).build_graph()
    resolved = resolve_input(family="gnm", n=N, seed=3, weighted=True, algorithm="connectivity")
    assert _bytes(cli) == _bytes(served) == _bytes(resolved)
    assert cli.weighted


def test_rep_mst_gets_weights_on_every_surface(received):
    cli = _cli_graph(received, "rep", "--param", "mst=true")
    served = RunRequest(
        algorithm="rep", params={"mst": True}, n=N, weighted=False
    ).build_graph()
    assert cli.weighted and served.weighted
    assert _bytes(cli) == _bytes(served)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "algorithm, params", [("connectivity", {}), ("mst", {}), ("rep", {"mst": True})]
)
@pytest.mark.parametrize(
    "names",
    [{"family": f} for f in sizeable_families()]
    + [{"scenario": s} for s in list_scenarios()]
    + [{"scenario": "lollipop", "family": "expander_bridge"}],
    ids=lambda names: "+".join(f"{key}={value}" for key, value in names.items()),
)
def test_graph_key_weight_flag_matches_the_built_graph(names, algorithm, params, weighted):
    req = RunRequest(algorithm=algorithm, params=params, n=N, seed=3, weighted=weighted, **names)
    assert req.build_graph().weighted is json.loads(req.graph_key())[-1]
