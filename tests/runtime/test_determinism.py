"""Determinism regression: the seed-precedence contract, pinned byte-for-byte.

Same ``RunConfig`` + seed must yield byte-identical ``RunReport`` JSON
(modulo wall time) across runs — for connectivity and MST, across fresh
Sessions, across explicit clusters, and between a sweep's grid points and
standalone runs.  A failure here means either the
algorithms picked up a hidden source of nondeterminism or the envelope
serialization stopped being canonical.

Three large runs are also pinned to recorded SHA-256 digests of their whole
envelopes, so a change that returns a different but still valid forest or
labelling fails here even when every model cost stays the same.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import generators
from repro.runtime import ClusterConfig, RunConfig, Session


def _graph(weighted: bool):
    g = generators.gnm_random(140, 420, seed=21)
    return generators.with_unique_weights(g, seed=21) if weighted else g


@pytest.mark.parametrize("algorithm", ["connectivity", "mst"])
def test_same_config_same_bytes_across_runs(algorithm):
    cfg = RunConfig(seed=21, cluster=ClusterConfig(k=4))
    g = _graph(weighted=algorithm == "mst")
    first = Session(g, config=cfg).run(algorithm)
    second = Session(g, config=cfg).run(algorithm)
    assert first.to_json(include_timing=False) == second.to_json(include_timing=False)


@pytest.mark.parametrize("algorithm", ["connectivity", "mst"])
def test_per_run_seed_equals_config_seed_route(algorithm):
    """The two ways of supplying the same seed produce identical envelopes
    up to the recorded config provenance (which honestly differs)."""
    g = _graph(weighted=algorithm == "mst")
    via_config = Session(g, config=RunConfig(seed=21, cluster=ClusterConfig(k=4))).run(algorithm)
    via_run = Session(g, config=RunConfig(cluster=ClusterConfig(k=4))).run(algorithm, seed=21)
    assert via_config.seed == via_run.seed == 21
    assert via_config.result == via_run.result
    assert via_config.ledger == via_run.ledger
    assert via_config.phase_stats == via_run.phase_stats


def test_different_seeds_differ():
    """Sanity: the seed actually reaches the algorithm (no silent pinning)."""
    g = _graph(weighted=False)
    cfg = RunConfig(cluster=ClusterConfig(k=4))
    a = Session(g, config=cfg).run("connectivity", seed=1)
    b = Session(g, config=cfg).run("connectivity", seed=2)
    # Same answer, but the runs must not be bit-identical transcripts.
    assert a.result["n_components"] == b.result["n_components"]
    assert a.to_json(include_timing=False) != b.to_json(include_timing=False)


@pytest.mark.parametrize("algorithm", ["connectivity", "mst"])
def test_sweep_points_equal_standalone_runs(algorithm):
    """A sweep reuses cached clusters across its grid; every point must
    still match a run of that (k, seed) on a fresh Session."""
    g = _graph(weighted=algorithm == "mst")
    cfg = RunConfig(cluster=ClusterConfig(k=4))
    swept = Session(g, config=cfg).sweep(algorithm, ks=(2, 4), seeds=(1, 2))
    alone = [
        Session(g, config=RunConfig(cluster=ClusterConfig(k=k))).run(algorithm, seed=seed)
        for k in (2, 4)
        for seed in (1, 2)
    ]
    assert [r.to_json(include_timing=False) for r in swept] == [
        r.to_json(include_timing=False) for r in alone
    ]


#: (algorithm, n, m, weighted, SHA-256 of the envelope): G(n, m) built and
#: run with seed 1 on k = 8 machines.  These are the inputs of the wall-clock
#: benchmark's conn-sparse, conn-dense and mst-sparse workloads.
LARGE_RUNS = {
    "conn-sparse": (
        "connectivity", 32768, 3 * 32768, False,
        "3c1bae7f1d614fd5aa920d0959111e2c09c40e73613cbe2a7460ec7ae1271e88",
    ),
    "conn-dense": (
        "connectivity", 4096, 48 * 4096, False,
        "06bdc12ad6923ac495f88e018258ae5f2c3e0120967f381c1ac168e70b2910b0",
    ),
    "mst-sparse": (
        "mst", 8192, 4 * 8192, True,
        "a31eff5a79a35a099100431d3319340cb0258980a7d7b9a8c11e69ebd69c083c",
    ),
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(LARGE_RUNS))
def test_large_run_envelopes_are_pinned(name):
    algorithm, n, m, weighted, digest = LARGE_RUNS[name]
    g = generators.gnm_random(n, m, seed=1)
    if weighted:
        g = generators.with_unique_weights(g, seed=1)
    report = Session().run(algorithm, g, config=RunConfig(seed=1, cluster=ClusterConfig(k=8)))
    envelope = report.to_json(include_timing=False).encode()
    assert hashlib.sha256(envelope).hexdigest() == digest
