"""connectivity_logdiam through the envelope: differential grid + config gates.

The ISSUE-8 acceptance grid for the new registry entry:

* labels must match :mod:`repro.graphs.reference` on every worst-case
  family x 3 seeds, composed with the benign ends of the hostile axes
  (a mild fault plan, each partition-skew scheme) — truncated *and*
  untruncated, since the space bound changes the simulation path;
* a non-benign ``logdiam`` config section is accepted only by
  algorithms that read it (``AlgorithmSpec.sections``), and
  connectivity_logdiam rejects the axes it does not compose with
  (update streams) loudly — a silently ignored knob is how benchmark
  grids go subtly wrong;
* :class:`LogDiamConfig` validates, round-trips, and stays *absent*
  from serialized envelopes when unset, so every pre-existing
  ``BENCH_*.json`` stays byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.partition import PARTITION_SCHEMES, PartitionConfig
from repro.corpus.families import sized_graph
from repro.graphs import generators
from repro.graphs import reference as ref
from repro.runtime import ClusterConfig, ConfigError, LogDiamConfig, RunConfig, Session
from repro.runtime.config import FaultPlan
from repro.scenarios.updates import UpdateBatch, UpdatePlan

#: Benign end of the fault axis: light drops, short stalls.
MILD_FAULTS = FaultPlan(drop_prob=0.05, dup_prob=0.01, stall_prob=0.02, max_stall_rounds=1)

FAMILIES = ("barbell", "disjoint_cliques", "expander_bridge", "lollipop", "star_of_paths")
SEEDS = (0, 1, 2)
K = 4
N = 40


def _config(seed: int, scheme: str | None = None, **kwargs) -> RunConfig:
    partition = PartitionConfig(scheme=scheme) if scheme else PartitionConfig()
    return RunConfig(
        seed=seed, cluster=ClusterConfig(k=K, partition=partition), **kwargs
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "logdiam",
    [None, LogDiamConfig(space_bound=8)],
    ids=["unbounded", "truncated"],
)
def test_labels_match_reference_across_families(family, logdiam):
    for seed in SEEDS:
        g = sized_graph(family, N, seed)
        expected = ref.connected_components(g).tolist()
        report = Session(g, config=_config(seed, logdiam=logdiam)).run(
            "connectivity_logdiam"
        )
        assert report.result["labels"] == expected, (
            f"logdiam labels diverged on {family} seed {seed} (cfg={logdiam})"
        )
        assert report.result["n_components"] == int(np.unique(expected).size)
        assert report.result["converged"]


@pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
def test_composes_with_partition_skew(scheme):
    for seed in SEEDS:
        g = sized_graph("star_of_paths", N, seed)
        report = Session(g, config=_config(seed, scheme=scheme)).run(
            "connectivity_logdiam"
        )
        assert report.result["labels"] == ref.connected_components(g).tolist()


def test_composes_with_faults():
    g = sized_graph("lollipop", N, 1)
    clean_cfg = _config(1)
    faulted_cfg = clean_cfg.with_overrides(faults=MILD_FAULTS)
    clean = Session(g, config=clean_cfg).run("connectivity_logdiam")
    faulted = Session(g, config=faulted_cfg).run("connectivity_logdiam")
    # Faults may only cost rounds, never change answers.
    assert faulted.result["labels"] == clean.result["labels"]
    assert faulted.rounds > clean.rounds
    assert faulted.ledger["faults"]["fault_rounds"] > 0
    assert "faults" not in clean.ledger


def test_runs_are_byte_deterministic():
    g = sized_graph("barbell", N, 2)
    cfg = _config(2, scheme="adversarial_heavy", logdiam=LogDiamConfig(space_bound=4))
    first = Session(g, config=cfg).run("connectivity_logdiam")
    second = Session(g, config=cfg).run("connectivity_logdiam")
    assert first.to_json(include_timing=False) == second.to_json(include_timing=False)


def test_space_bound_reported_and_budget_caps_iterations():
    g = sized_graph("star_of_paths", 60, 0)
    report = Session(
        g, config=_config(0, logdiam=LogDiamConfig(space_bound=4, doubling_budget=2))
    ).run("connectivity_logdiam")
    assert report.result["space_bound"] == 4
    assert report.result["doubling_rounds"] == 2
    assert not report.result["converged"]


def test_budget_falls_back_to_max_phases():
    g = generators.path_graph(80)
    report = Session(g, config=_config(0, max_phases=1)).run("connectivity_logdiam")
    assert report.result["doubling_rounds"] == 1
    assert not report.result["converged"]


class TestConfigGates:
    @pytest.mark.parametrize("algorithm", ["connectivity", "flooding", "mst"])
    def test_other_algorithms_reject_logdiam_section(self, algorithm):
        g = generators.gnm_random(40, 100, seed=0)
        cfg = _config(0, logdiam=LogDiamConfig(space_bound=8))
        if algorithm == "mst":
            g = generators.with_unique_weights(g, seed=0)
        with pytest.raises(ConfigError, match="ignores the logdiam config section"):
            Session(g, config=cfg).run(algorithm)

    def test_logdiam_rejects_update_streams(self):
        g = generators.gnm_random(40, 100, seed=0)
        cfg = _config(
            0, updates=UpdatePlan(batches=(UpdateBatch(kind="mix", size=4),))
        )
        with pytest.raises(ConfigError):
            Session(g, config=cfg).run("connectivity_logdiam")

    @pytest.mark.parametrize(
        "bad",
        [
            LogDiamConfig(space_bound=0),
            LogDiamConfig(space_bound=-3),
            LogDiamConfig(doubling_budget=0),
            LogDiamConfig(space_bound=2.5),  # type: ignore[arg-type]
        ],
    )
    def test_invalid_sections_raise(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(logdiam=bad).validate()


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = RunConfig(seed=3, logdiam=LogDiamConfig(space_bound=16, doubling_budget=9))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unset_section_is_absent_from_dict(self):
        # Envelope byte-stability: configs predating the logdiam knob must
        # serialize exactly as before, or every BENCH_*.json digest moves.
        assert "logdiam" not in RunConfig(seed=1).to_dict()

    def test_partial_section_round_trips(self):
        cfg = RunConfig(logdiam=LogDiamConfig(space_bound=8))
        back = RunConfig.from_dict(cfg.to_dict())
        assert back.logdiam == LogDiamConfig(space_bound=8, doubling_budget=None)
