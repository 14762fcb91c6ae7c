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
so are eighteen runs outside the default settings and thirteen runs that
charge derived instances (min-cut's sampled subgraphs, verification's
masked graphs and double cover, REP's rerouted RVP) to the run's ledger.
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
#: k = 8, graph and run seeded alike.  On negative and tied weights a
#: finished component's MWOE can be negative; its effective bound is -inf,
#: so it keeps no incidence whatever the sign.  These pin which incidences
#: each elimination call sketches, and with them the label queries.
ELIMINATION_RUNS = {
    ("uniform", 1): "2c52eef3363adcac446ce41d8aa5fcbba194078d9e066946068a0715fc615ddd",
    ("uniform", 2): "8074e0a84c53be2c81bed95a7fab99c417bfdae436f0ec4d2b6bfd2e4351f908",
    ("uniform", 3): "cd55788b600480ea4fd65c06a63a0cb07c3212ecb8814187bbb1163401a93745",
    ("uniform", 4): "4db11b78d0c9b187f2aaaf5e5e9a722bc4237b77ef1a6f7c24c0a54491a4b28a",
    ("negative", 1): "489941cee6445607fbcfc0a2ea0d80bfe215bdad3f7c5fdc453004297ac7599a",
    ("negative", 2): "e272f2c397a332a247a830d12550f3a6a386e801ee785c79b6a097b654e1777e",
    ("negative", 3): "cce406e4e2b22d9c7792a308486c77f03dc0646f55697685eb9230451bb4821b",
    ("negative", 4): "92e18ba6c6233ccbc94de926ae498dcd8ed885a04abaeb234c08541daee80ac7",
    ("tied", 1): "7e0c17b526f22c1a2f44e10945a315d7ef704a6cb48655835cf88c408119cc45",
    ("tied", 2): "5864724dfd90216a0c4640255c07e591a66875108d899dcd8b92d84ee5b12066",
    ("tied", 3): "72f76453acbc90bfe7dda81f49acae791b47c1ff978788f0be520d9d75e1c993",
    ("tied", 4): "ea5581f01a4522515d681158f180ab36b133f6f854caad1a8f012cff0c24c8f5",
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


#: name -> (algorithm, RunConfig fields) of a run on the VARIANT_RUNS input
#: with seed 1 and k = 4.  Each charges connectivity or MST on a derived
#: instance to the run's ledger.
_DERIVED = {
    "mincut": ("mincut", {}),
    "rep": ("rep", {}),
    "rep+mst": ("rep", {"params": {"mst": True}}),
    "rep+bandwidth_bits": ("rep", {"cluster": ClusterConfig(k=4, bandwidth_bits=512)}),
    "verify:bipartiteness": ("verify", {"params": {"problem": "bipartiteness"}}),
    "verify:cycle_containment": ("verify", {"params": {"problem": "cycle_containment"}}),
    "verify:st_connectivity": ("verify", {"params": {"problem": "st_connectivity"}}),
}

#: (name, scenario) -> SHA-256 of the envelope.  These pin the order in
#: which derived instances charge the run's ledger, which is the order the
#: fault draws key on, and REP's RVP seed and pinned bandwidth.
DERIVED_RUNS = {
    ("mincut", None): "aceb6793ba00af03fc228d8fa1625485f4bb3442809990b9e3861dbf715fa0e7",
    ("mincut", "faulty_links"): "68e4040aa5fdf916ba897ddc126858598943925d6b7945d7aaaf2a4ac2090aa5",
    ("rep", None): "c5d51527e73dcc55afbd41fb01c1058b51b2c67e28cf636ec398434bff5b61d9",
    ("rep", "faulty_links"): "dd056fa717fd531432a30b766e387ea1d112c5afbfbcf0e707cdfcc501296608",
    ("rep+bandwidth_bits", None): "74fee81588fe0123d8f2b5ab0cbf63a8ffbe0ba36ebdad36422b2ca037475c1e",
    ("rep+mst", None): "a798e116cb1ef53af1c75335aada44b0415e2e89e9ceb9437662c848e19ed217",
    ("rep+mst", "faulty_links"): "5589282d773dccf14caa88afb2d77b05a0932997ad69e7a8858a70d644eeffc1",
    ("verify:bipartiteness", None): "e87822f530ca1ce094d5456d7459a10f91804c35a578693c6460acf3462da1b0",
    ("verify:bipartiteness", "faulty_links"): "65cd2f4447ddcfd139b8a5402653aa96543359bc3e049c0cc1aef3b3ec67802d",
    ("verify:cycle_containment", None): "8f52f577e55969b8ee8962a2aec55303673a5f5bc369c54d8df0c210088a6904",
    ("verify:cycle_containment", "faulty_links"): "65ff1a2753859315cc27f2fb903b08887686922d8cb01ee7448f3cb96df73cb6",
    ("verify:st_connectivity", None): "96faed0f6ab6950a411328a955084f8ccc762d54600967c688cc619e8ba92310",
    ("verify:st_connectivity", "faulty_links"): "1ecf5d7683885f64339a2c0472e74122a6775a404ae1d46d364336984f9742b6",
}  # fmt: skip


@pytest.mark.parametrize("name, scenario", sorted(DERIVED_RUNS, key=str))
def test_derived_instance_envelopes_are_pinned(name, scenario):
    algorithm, fields = _DERIVED[name]
    fields = {"cluster": ClusterConfig(k=4), **fields}
    g = generators.with_unique_weights(generators.gnm_random(300, 900, seed=1), seed=1)
    report = Session().run(algorithm, g, config=RunConfig(seed=1, **fields), scenario=scenario)
    envelope = report.to_json(include_timing=False).encode()
    assert hashlib.sha256(envelope).hexdigest() == DERIVED_RUNS[name, scenario]
