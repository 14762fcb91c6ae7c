"""Differential hardening: every algorithm x worst-case family x skew x seeds.

The ISSUE-3 acceptance grid: with the standard hostile fault plan
(drop <= 10%, stalls <= 2 rounds) and each partition-skew scheme, every
registered algorithm must still return answers matching the sequential
references in :mod:`repro.graphs.reference` on every worst-case graph
family, for 5 seeds each — and byte-deterministically.

Faults and skew may only degrade *rounds*; any answer drift is a bug in
the scenario engine (faults must stay payload-preserving, placements must
stay a pure relabeling of machine homes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.partition import PARTITION_SCHEMES, PartitionConfig
from repro.corpus.families import sized_graph
from repro.graphs import generators
from repro.graphs import reference as ref
from repro.runtime import ClusterConfig, RunConfig, Session
from repro.runtime.config import FaultPlan

#: The acceptance fault envelope: drop <= 10%, stalls <= 2 rounds.
STANDARD_FAULTS = FaultPlan(
    drop_prob=0.1, dup_prob=0.02, stall_prob=0.05, max_stall_rounds=2
)

FAMILIES = ("barbell", "disjoint_cliques", "expander_bridge", "lollipop", "star_of_paths")
SEEDS = tuple(range(5))
K = 4

#: Input sizes (approximate; the family builders round to their natural
#: granularity).  Small enough to keep the 160-cell grid in tier-1 budget,
#: large enough that every family exhibits its adversarial shape.
N_DEFAULT = 40
#: The min-cut scan runs one connectivity test per sampling level; keep it
#: smaller so the full grid stays cheap.
N_MINCUT = 24

_VERIFY_PROBLEMS = ("bipartiteness", "cycle_containment", "st_connectivity")


def _graph_for(family: str, seed: int, *, n: int = N_DEFAULT, weighted: bool = False):
    return sized_graph(family, n, seed, weighted=weighted)


def _config(scheme: str, seed: int, **kwargs) -> RunConfig:
    return RunConfig(
        seed=seed,
        cluster=ClusterConfig(k=K, partition=PartitionConfig(scheme=scheme)),
        faults=STANDARD_FAULTS,
        **kwargs,
    )


def _grid(algorithms):
    return [
        pytest.param(a, f, s, id=f"{a}-{f}-{s}")
        for a in algorithms
        for f in FAMILIES
        for s in PARTITION_SCHEMES
    ]


@pytest.mark.parametrize(
    "algorithm,family,scheme", _grid(["connectivity", "flooding", "referee"])
)
def test_component_labels_match_reference(algorithm, family, scheme):
    for seed in SEEDS:
        g = _graph_for(family, seed)
        expected = ref.connected_components(g).tolist()
        report = Session(g, config=_config(scheme, seed)).run(algorithm)
        assert report.result["labels"] == expected, (
            f"{algorithm} labels diverged on {family}/{scheme} seed {seed}"
        )
        assert report.result["n_components"] == int(np.unique(expected).size)


@pytest.mark.parametrize("algorithm,family,scheme", _grid(["mst", "boruvka_nosketch"]))
def test_mst_weight_matches_kruskal(algorithm, family, scheme):
    for seed in SEEDS:
        g = _graph_for(family, seed, weighted=True)
        forest = ref.kruskal_mst(g)
        expected_weight = ref.mst_weight(g, forest)
        report = Session(g, config=_config(scheme, seed)).run(algorithm)
        # Unique weights make the MSF unique; weights are small integers
        # stored as float64, so the sums are exact and order-independent.
        assert report.result["total_weight"] == expected_weight, (
            f"{algorithm} weight diverged on {family}/{scheme} seed {seed}"
        )
        assert report.result["n_edges"] == int(forest.size)


@pytest.mark.parametrize("family,scheme", [
    pytest.param(f, s, id=f"{f}-{s}") for f in FAMILIES for s in PARTITION_SCHEMES
])
def test_mincut_estimate_brackets_reference(family, scheme):
    for seed in SEEDS:
        g = _graph_for(family, seed, n=N_MINCUT)
        report = Session(g, config=_config(scheme, seed)).run("mincut")
        estimate = report.result["estimate"]
        if ref.count_components(g) > 1:
            assert estimate == 0.0, f"disconnected {family} must report cut 0"
            continue
        truth = ref.stoer_wagner_mincut(g)
        envelope = 16.0 * np.log(g.n)
        assert truth / envelope <= estimate <= truth * envelope, (
            f"mincut estimate {estimate} outside O(log n) envelope of {truth} "
            f"on {family}/{scheme} seed {seed}"
        )


@pytest.mark.parametrize("family,scheme", [
    pytest.param(f, s, id=f"{f}-{s}") for f in FAMILIES for s in PARTITION_SCHEMES
])
def test_verification_answers_match_reference(family, scheme):
    for seed in SEEDS:
        g = _graph_for(family, seed)
        problem = _VERIFY_PROBLEMS[seed % len(_VERIFY_PROBLEMS)]
        if problem == "bipartiteness":
            expected = ref.is_bipartite(g)
            params = {"problem": problem}
        elif problem == "cycle_containment":
            expected = ref.has_cycle(g)
            params = {"problem": problem}
        else:
            s_vtx, t_vtx = 0, g.n - 1
            expected = ref.st_connected(g, s_vtx, t_vtx)
            params = {"problem": problem, "s": s_vtx, "t": t_vtx}
        report = Session(g, config=_config(scheme, seed, params=params)).run("verify")
        assert report.result["answer"] == expected, (
            f"verify[{problem}] diverged on {family}/{scheme} seed {seed}"
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_rep_matches_reference_under_faults(family):
    # REP scatters *edges*; vertex-placement schemes are not applicable,
    # so the REP leg of the grid runs on its native random edge partition
    # (still under the standard fault plan).
    for seed in SEEDS:
        g = _graph_for(family, seed, weighted=True)
        config = RunConfig(seed=seed, cluster=ClusterConfig(k=K), faults=STANDARD_FAULTS)
        report = Session(g, config=config).run("rep")
        assert report.result["n_components"] == ref.count_components(g)
        mst_report = Session(g, config=config.with_overrides(params={"mst": True})).run("rep")
        assert mst_report.result["total_weight"] == ref.mst_weight(g, ref.kruskal_mst(g))


def test_rep_rejects_partition_schemes():
    from repro.runtime.config import ConfigError

    g = _graph_for("lollipop", 0, weighted=True)
    config = RunConfig(
        seed=0, cluster=ClusterConfig(k=K, partition=PartitionConfig(scheme="powerlaw"))
    )
    with pytest.raises(ConfigError, match="partition schemes"):
        Session(g, config=config).run("rep")


@pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
def test_faulted_skewed_runs_are_byte_deterministic(scheme):
    g = _graph_for("lollipop", 3)
    config = _config(scheme, 3)
    first = Session(g, config=config).run("connectivity")
    second = Session(g, config=config).run("connectivity")
    assert first.to_json(include_timing=False) == second.to_json(include_timing=False)


@pytest.mark.parametrize(
    "algorithm,params",
    [("mincut", {}), ("verify", {"problem": "bipartiteness"})],
)
def test_subcluster_algorithms_pay_fault_overhead(algorithm, params):
    # min-cut and verification charge their work to derived sub-clusters
    # (with_graph / the double cover); the fault model must follow them
    # there — a regression here means the run reports a hostile network
    # but silently simulated a clean one.
    g = generators.gnm_random(48, 144, seed=2)
    config = RunConfig(
        seed=2,
        cluster=ClusterConfig(k=K),
        faults=FaultPlan(drop_prob=0.2),
        params=params,
    )
    report = Session(g, config=config).run(algorithm)
    assert report.ledger["faults"]["fault_rounds"] > 0


def test_faults_degrade_rounds_but_not_answers():
    g = _graph_for("barbell", 1)
    clean_cfg = RunConfig(seed=1, cluster=ClusterConfig(k=K))
    faulted_cfg = clean_cfg.with_overrides(faults=STANDARD_FAULTS)
    clean = Session(g, config=clean_cfg).run("connectivity")
    faulted = Session(g, config=faulted_cfg).run("connectivity")
    assert faulted.result["labels"] == clean.result["labels"]
    faults = faulted.ledger["faults"]
    assert faults["fault_rounds"] > 0
    # Faults only ever add rounds, and never more than the injected total
    # (the relay-sync slack of disseminate_from_machine may absorb part of
    # the overhead, so the delta can fall short of fault_rounds).
    assert clean.rounds < faulted.rounds <= clean.rounds + faults["fault_rounds"]
    assert "faults" not in clean.ledger
