"""Determinism regression: the seed-precedence contract, pinned byte-for-byte.

Same ``RunConfig`` + seed must yield byte-identical ``RunReport`` JSON
(modulo wall time) across runs — for connectivity and MST, across fresh
Sessions, across explicit clusters, and between a sweep's grid points and
standalone runs.  A failure here means either the
algorithms picked up a hidden source of nondeterminism or the envelope
serialization stopped being canonical.

Three large runs are also pinned to recorded SHA-256 digests of their whole
envelopes, so a change that returns a different but still valid forest or
labelling fails here even when every model cost stays the same.  Twelve MST
runs on negative, mixed-sign and tied weights are pinned the same way, and
so are eighteen runs outside the default settings.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import generators
from repro.runtime import ClusterConfig, RunConfig, Session, SketchConfig


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


#: (weighting, seed) -> SHA-256 of the MST envelope on G(2000, 6000) with
#: k = 8, graph and run seeded alike.  Negative and tied weights are where
#: an elimination call may raise a component's effective bound (an inactive
#: component's bound becomes 0.0), so they pin which incidences each
#: elimination call sketches.
ELIMINATION_RUNS = {
    ("uniform", 1): "d1edd28dbbaeab2fc19705591466c5c3eeb74cb635dea4b73818636b8f50030b",
    ("uniform", 2): "5401a97d0540aee5a5ad5ebbf53146881d68b1a95654de5822768229567d8324",
    ("uniform", 3): "a85391a310b33a09f12d304ca4211de3891fbda96a0098c06f7fc22f90e3814f",
    ("uniform", 4): "815cfda29f357d48b0610cb978a0b4ceb6de9b2181a5a09140ada1e4e3a20c00",
    ("negative", 1): "cbb53508fc37381518d520413d9b6bf4624608830a1aacbba8802d607402ea4e",
    ("negative", 2): "ceab89f04c87bff0b79a2c3a1f216b2784774b6d9609f27a7599030d9b67dcb8",
    ("negative", 3): "5c2f98d362793d601d7c05f69048fc3ce7d3fa5289def9781d812d2e5a2d1639",
    ("negative", 4): "742d761134aab0bc9c3e1965eea2a174b01d3905cd9592611a0eabd1e591519a",
    ("tied", 1): "72f8f8a6463effa7110113c4b40d3f21081b0d4ee3d89a30195e05aca0ca8b95",
    ("tied", 2): "b90fa8f38551af7fa383e1b0b59b901236a691c6e34244f41427e74a55e6292b",
    ("tied", 3): "61a177e2a513ff04f54ea634482500936bfa8fbe0703af8971e06f37118de31f",
    ("tied", 4): "17420198fe82e0e282313b96731cec93d91bd97e5a591be62b643d58e7e7e408",
}


def _elimination_input(weighting: str, seed: int):
    g = generators.gnm_random(2000, 6000, seed=seed)
    if weighting == "uniform":
        return generators.with_random_weights(g, seed=seed, low=-1, high=1)
    if weighting == "negative":
        return generators.with_random_weights(g, seed=seed, low=-5, high=-1)
    return g.with_weights((np.arange(g.m) % 3 - 1).astype(np.float64))


@pytest.mark.parametrize("weighting, seed", sorted(ELIMINATION_RUNS))
def test_mst_elimination_envelopes_are_pinned(weighting, seed):
    g = _elimination_input(weighting, seed)
    report = Session().run("mst", g, config=RunConfig(seed=seed, cluster=ClusterConfig(k=8)))
    envelope = report.to_json(include_timing=False).encode()
    assert hashlib.sha256(envelope).hexdigest() == ELIMINATION_RUNS[weighting, seed]


#: variant -> (seed s, RunConfig fields, scenario): a run on
#: with_unique_weights(G(300, 900, seed=s), seed=s) with k = 4 and run seed s.
_VARIANTS = {
    "default": (1, {}, None),
    "repetitions=1": (1, {"sketch": SketchConfig(repetitions=1)}, None),
    "max_phases=3": (1, {"max_phases": 3}, None),
    "uncharged-randomness": (1, {"charge_shared_randomness": False}, None),
    "polynomial": (1, {"sketch": SketchConfig(hash_family="polynomial")}, None),
    "faulty_links": (1, {}, "faulty_links"),
    "churn_storm": (1, {}, "churn_storm"),
    "strict": (1, {"params": {"output": "strict"}}, None),
    "strict+faulty_links": (1, {"params": {"output": "strict"}}, "faulty_links"),
    "elimination_budget=2": (1, {"params": {"strict_elimination_budget": 2}}, None),
    "repetitions=1+elimination_budget=1": (
        4,
        {"sketch": SketchConfig(repetitions=1), "params": {"strict_elimination_budget": 1}},
        None,
    ),
}

#: (algorithm, variant) -> SHA-256 of the envelope.  These pin the phase
#: loops away from their defaults: connectivity retry phases
#: (repetitions=1), runs cut off unconverged by their phase budget
#: (max_phases=3), the bulk-step order that fault draws and churn events
#: key on, MST's strict output, and fixed elimination budgets (the last
#: variant has three MST retry phases).
VARIANT_RUNS = {
    ("connectivity", "default"): "ea584e882fdf506dea9967affd318325595530ed74e95da817a3ce31b5af3efd",
    ("connectivity", "repetitions=1"): "ece2ee285d859400df80de13fd2c5335abd868b86c996f08711bfeea5fda19a4",
    ("connectivity", "max_phases=3"): "190423014fb614e3b1c0fcc69d17e780c4f5784eaccc5fcd7f28e84f852eacca",
    ("connectivity", "uncharged-randomness"): "c21d9c0725cbfb3740de1c0f5259febb31bbf081c702ab226dc99b240e7ff43b",
    ("connectivity", "polynomial"): "d291d7f2edaf64e07fef8e94160e2f8558ec798c328cb696007e2f724ea4018b",
    ("connectivity", "faulty_links"): "83f61a9f79584c003586cbbdbb291057ae75b723534850c98b74e57d4ce87acc",
    ("connectivity", "churn_storm"): "bee78e4dd7e9d8fd74d861f05f1eea0b7b835c586d2e5d47e0abe4d5864a9e4d",
    ("mst", "default"): "d4fa7af7858efe090afb8583c64d3e1137f3860da084a84c7494aaab96be18ed",
    ("mst", "repetitions=1"): "f606bb6e49fd760ae68ab21c604070cba4791f3f3fcf4435ffed92ca56666318",
    ("mst", "max_phases=3"): "56ea52f62a3b929671fd287499c7be841ab494c0ce7fa9797fd8a090146f5bd3",
    ("mst", "uncharged-randomness"): "520949415be02dd22a9db5313dd518fc30b16ebd0e558ef863f54cf21d55abe0",
    ("mst", "polynomial"): "08fd44f5fa43ab09c99adcabc8378e45e4f68384126fb34d35fcdd5adb311379",
    ("mst", "faulty_links"): "851a0b0e5b1f4cf12b39eacc0ad53a5b0ce7dd0bce27af72d85e96730d61f904",
    ("mst", "churn_storm"): "6f3b682512878eba12005fdd6f50b259a6ce615fbbc42607b4cfe622d915971c",
    ("mst", "strict"): "f404c4b89b315bd8752e2de9073933ed72f32db2a7681393a7927a74b802e61e",
    ("mst", "strict+faulty_links"): "59526d31cc9f0e9f1abc4d8d340763ca85fb741127382a7f4548366c8ebd47de",
    ("mst", "elimination_budget=2"): "1a636982a59bf88067f9db6aaaa01e760555c26bcbdb6cf236fa94912264a901",
    ("mst", "repetitions=1+elimination_budget=1"): "3ae4aa0d67132140302b3a701b93bc29f5b6c791ea8eac9bc07ce58c596bba27",
}  # fmt: skip


@pytest.mark.parametrize("algorithm, variant", sorted(VARIANT_RUNS))
def test_variant_envelopes_are_pinned(algorithm, variant):
    seed, fields, scenario = _VARIANTS[variant]
    g = generators.with_unique_weights(generators.gnm_random(300, 900, seed=seed), seed=seed)
    config = RunConfig(seed=seed, cluster=ClusterConfig(k=4), **fields)
    report = Session().run(algorithm, g, config=config, scenario=scenario)
    envelope = report.to_json(include_timing=False).encode()
    assert hashlib.sha256(envelope).hexdigest() == VARIANT_RUNS[algorithm, variant]
