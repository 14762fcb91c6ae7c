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
so are sixteen runs outside the default settings and thirteen runs that
charge derived instances (min-cut's sampled subgraphs, verification's
masked graphs and double cover, REP's rerouted RVP) to the run's ledger.
Those last two groups must also replay from their own envelopes: the
recorded config and seed alone give the same bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import generators
from repro.runtime import ClusterConfig, RunConfig, Session, SketchConfig
from repro.scenarios.registry import get_scenario


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
        "2d12a097e6628d470750e22ed24eee8597032df629c3d4d9d22235ee7e202951",
    ),
    "conn-dense": (
        "connectivity", 4096, 48 * 4096, False,
        "51830ea8356c4c428fbc0d03eafbe92a72c678933b4d023dcaeaab2ff697c148",
    ),
    "mst-sparse": (
        "mst", 8192, 4 * 8192, True,
        "a54b152d08fbf385c0ed634b1c4a2d0625a23618b43157a7d3548c042aad83e9",
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
    ("uniform", 1): "76dcaf4b4c012d7b466610f72b380b87c46076189436e6c7d6a9f03df3ca067e",
    ("uniform", 2): "c4899c8d5f96b36051e823fc1b030e27875772c827a649f662a88b0b506d0601",
    ("uniform", 3): "24d47c65017bbc35eae7e5ebd676834703300398524e8e4d1a6fe76688088bc7",
    ("uniform", 4): "1197cdfbf3d1ac9d2be5e0d650cb1fe95678f3096f6ab616018f66c718ca300c",
    ("negative", 1): "aa6292339648bde78ad715defc4ed2fe3b2444b2cf71d4ba1b5cc046b2f1cdc2",
    ("negative", 2): "d0e9e73d6ab7d1b4d3143d0c1325efefbdff9994dbf4c57b1f7ae5eaeab4e691",
    ("negative", 3): "0ecc05fefea746eba8a0d253586a84c65afa57ed78d80143900a740b3a0a935c",
    ("negative", 4): "a77c9981e384d20878e5bd606260c85667474bda90bc6415f72a0131789d202a",
    ("tied", 1): "1cab21311a0a5eb685bcb0be4652bda0889acbaf7fed3b71805882b6ad27ebe4",
    ("tied", 2): "9716e700dfe36ef2a7878708d836cde5e287b3a95623ec7f9971c01285178acb",
    ("tied", 3): "1f9715ab20b31209280e9cef141a56f108856f0f905de4b155c6ceea3d033353",
    ("tied", 4): "ff85d9e631c2ce35078ae9750e2cf6b9644df00702400d06d7a2645c40750bc5",
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
    ("connectivity", "default"): "511a0e198beeeb7f51d5869783da4abe904381dfcb58d72be4ada4fea5d34b80",
    ("connectivity", "repetitions=1"): "bb0e96228bd76a49072b6f5d0e28d6ff8e8981b6c17a43a28d98b7b3724a2258",
    ("connectivity", "max_phases=3"): "6eab45bfb66d0c22b975188dae0924ae38e21dca75bc5838711ef3e416401fc5",
    ("connectivity", "polynomial"): "d557ea925ef4cffeae10f0ce55b6890d2b109fca2394e587359dab9ac6aa2efd",
    ("connectivity", "faulty_links"): "2c340d45f34ee46c94d90208091fff9d1d15c72a60e637ff2f54e4739deec800",
    ("connectivity", "churn_storm"): "ff044a03236e25bc774c5093c74a8d2a47f741aa0c8b33be8e8613c3cc6292f3",
    ("mst", "default"): "1a75cde5a9bf064b749dc04b92450ba02ea00a6cd1bf7b6b71987386bf6e2fe2",
    ("mst", "repetitions=1"): "38d2e684895020bd06c2d215000319d531c4a1fd1bf7ff87fcc9e6c1511c1b8d",
    ("mst", "max_phases=3"): "536ca6fbd859329da14803af4b740116bf441849b953b6ac18a5d30b333ace12",
    ("mst", "polynomial"): "b7272f020d811876dacf8970ef6993e036a03f6aa2ee3568415043413fada4da",
    ("mst", "faulty_links"): "df84b0db6e773d385cf2b41d59355e1f1ff4e2e3bed912eaf19b51401037b5f5",
    ("mst", "churn_storm"): "eec57e8ec16fdb3ad1b5085cb67366f92b3e6ebbeb191fce4048ada5ec9ba2bb",
    ("mst", "strict"): "18d8d5316e94fa521d353a7d51ae92dbb2b49e69eccf8c526bf052be64f62515",
    ("mst", "strict+faulty_links"): "bd9a56af52ca6571e4315d0b9e13a38ab0539284c27967f79d25804ad67e1811",
    ("mst", "elimination_budget=2"): "91862b64398e87cdde727ef7c88c5af87730dc0b7f0c5a392b1b7d20ece962d9",
    ("mst", "repetitions=1+elimination_budget=1"): "351089aac5e5195c5da327beb6e4b57b3e2f794da8b464e6f09964a2e0c2b85c",
}  # fmt: skip


def _variant_run(algorithm, variant):
    """The input graph of one VARIANT_RUNS pin, and its report."""
    seed, fields, scenario = _VARIANTS[variant]
    g = generators.with_unique_weights(generators.gnm_random(300, 900, seed=seed), seed=seed)
    config = RunConfig(seed=seed, cluster=ClusterConfig(k=4), **fields)
    if scenario is not None:
        config = get_scenario(scenario).apply(config)
    return g, Session().run(algorithm, g, config=config)


@pytest.mark.parametrize("algorithm, variant", sorted(VARIANT_RUNS))
def test_variant_envelopes_are_pinned(algorithm, variant):
    _, report = _variant_run(algorithm, variant)
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
    ("mincut", None): "17ee87c18c819b1cb984c379e4fd2ae859649e11f461d5d79d043495db3ff21f",
    ("mincut", "faulty_links"): "42884b0988a21ee1854ccf491be6c84599936b7638674907c1ca509f38bb8de2",
    ("rep", None): "47da32da47ff30090f5b19727055f6c2a5e8ca2cccf7b1f5b6e2abfda222a706",
    ("rep", "faulty_links"): "57ef8cbafc810b36c0c6dfa1b5426fef10bdc4dd243f017c683be51d0c807c75",
    ("rep+bandwidth_bits", None): "9da2ffeec4a06d54a4461ac370227e10d3dff24cee3b83675344d218e085c559",
    ("rep+mst", None): "5da4bf0c3e289ed4529abd7dee1e96559901d17aabff78756fb52755046cd17b",
    ("rep+mst", "faulty_links"): "73bcd172f829d33c0743b34c1767ce0bdb3cfe434e6382aa2ab2960b20570be6",
    ("verify:bipartiteness", None): "50ae20df70d84b520c6be17b616217e8b1c067fafea673703cf645dccf9086c7",
    ("verify:bipartiteness", "faulty_links"): "67db7ccb101bfa35ebbe25858e05bd6cf6d96bb814c65dd5bed0c856c90f80ad",
    ("verify:cycle_containment", None): "238ca31022b9f2df28543a138f7ac10f57b7742836b5440dd4843c47080569f9",
    ("verify:cycle_containment", "faulty_links"): "695498fa19af674d5c828ab896411dde940790bf25799558948d12275d9e6d4d",
    ("verify:st_connectivity", None): "73d54c7e122c0c08eb2ce5ddc018f42b2362de483484eae8ffdb0aef99516b61",
    ("verify:st_connectivity", "faulty_links"): "d29dda93bbfcccc22b87687f87188b4484fda3b15036cb9cad2caca2fff326a4",
}  # fmt: skip


def _derived_run(name, scenario):
    """The input graph of one DERIVED_RUNS pin, and its report."""
    algorithm, fields = _DERIVED[name]
    fields = {"cluster": ClusterConfig(k=4), **fields}
    g = generators.with_unique_weights(generators.gnm_random(300, 900, seed=1), seed=1)
    config = RunConfig(seed=1, **fields)
    if scenario is not None:
        config = get_scenario(scenario).apply(config)
    return g, Session().run(algorithm, g, config=config)


@pytest.mark.parametrize("name, scenario", sorted(DERIVED_RUNS, key=str))
def test_derived_instance_envelopes_are_pinned(name, scenario):
    _, report = _derived_run(name, scenario)
    envelope = report.to_json(include_timing=False).encode()
    assert hashlib.sha256(envelope).hexdigest() == DERIVED_RUNS[name, scenario]


_PINNED_RUNS = [
    *(pytest.param(_variant_run, key, id=f"variant:{key}") for key in sorted(VARIANT_RUNS)),
    *(pytest.param(_derived_run, k, id=f"derived:{k}") for k in sorted(DERIVED_RUNS, key=str)),
]


@pytest.mark.parametrize("run, key", _PINNED_RUNS)
def test_pinned_envelopes_replay_from_their_config(run, key):
    """A run is replayable from its own envelope: the recorded config and
    seed alone, with no scenario overlay, give the same bytes."""
    g, report = run(*key)
    config = RunConfig.from_dict(report.config)
    replay = Session().run(report.algorithm, g, config=config, seed=report.seed)
    assert replay.to_json(include_timing=False) == report.to_json(include_timing=False)
