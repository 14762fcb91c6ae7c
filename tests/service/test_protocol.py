"""Wire protocol: framing, request validation, and the coalescing keys."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.partition import PARTITION_SCHEMES
from repro.corpus.families import sizeable_families, sized_graph
from repro.graphs import generators
from repro.runtime.config import ConfigError
from repro.runtime.registry import get_algorithm, list_algorithms
from repro.scenarios.registry import list_scenarios
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    RunRequest,
    encode_frame,
    read_frame,
)
from repro.util.rng import derive_seed


def _read(data: bytes):
    """Feed raw bytes to a StreamReader and read one frame from it."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


# -- framing ----------------------------------------------------------------


def test_frame_roundtrip():
    payload = {"op": "run", "id": 3, "request": RunRequest().to_dict()}
    assert _read(encode_frame(payload)) == payload


def test_frames_are_canonical_json():
    a = encode_frame({"b": 1, "a": 2})
    b = encode_frame({"a": 2, "b": 1})
    assert a == b  # sorted keys, compact separators


def test_clean_eof_returns_none():
    assert _read(b"") is None


def test_truncated_header_raises():
    with pytest.raises(ProtocolError, match="header"):
        _read(b"\x00\x00")


def test_truncated_body_raises():
    frame = encode_frame({"op": "ping"})
    with pytest.raises(ProtocolError, match="body"):
        _read(frame[:-2])


def test_oversize_length_rejected_before_allocation():
    with pytest.raises(ProtocolError, match="exceeds"):
        _read(struct.pack(">I", MAX_FRAME_BYTES + 1))


def test_invalid_json_raises():
    bad = b"{nope"
    with pytest.raises(ProtocolError, match="JSON"):
        _read(struct.pack(">I", len(bad)) + bad)


def test_non_object_payload_raises():
    bad = json.dumps([1, 2]).encode()
    with pytest.raises(ProtocolError, match="object"):
        _read(struct.pack(">I", len(bad)) + bad)


# -- RunRequest -------------------------------------------------------------


def test_request_dict_roundtrip():
    req = RunRequest(algorithm="mst", n=128, seed=3, k=8, scheme="powerlaw", epoch=2)
    assert RunRequest.from_dict(req.to_dict()) == req


def test_request_from_dict_coerces_ints():
    req = RunRequest.from_dict({"n": "128", "k": "8", "seed": "1", "epoch": "0"})
    assert (req.n, req.k, req.seed) == (128, 8, 1)


def test_request_from_dict_decodes_weighted_strictly():
    assert RunRequest.from_dict({"weighted": "false"}).weighted is False


@pytest.mark.parametrize("fields", [{"n": 64.9}, {"seed": True}])
def test_request_from_dict_rejects_lossy_ints(fields):
    with pytest.raises(ProtocolError, match="expects int"):
        RunRequest.from_dict(fields)


@pytest.mark.parametrize("data", [[["n", 64], ["k", 8]], [], 0, False, "", "abc"])
def test_request_from_dict_rejects_non_objects(data):
    with pytest.raises(ProtocolError, match="request must be an object"):
        RunRequest.from_dict(data)


def test_request_rejects_unknown_fields():
    with pytest.raises(ProtocolError, match="unknown"):
        RunRequest.from_dict({"n": 64, "bogus": 1})


@pytest.mark.parametrize(
    "fields",
    [
        {"n": 2},
        {"k": 1},
        {"scheme": "nope"},
        {"epoch": -1},
        {"family": "petersen"},
        {"algorithm": ""},
        {"algorithm": "nope"},
        {"scenario": "nope"},
    ],
)
def test_request_validation_rejects(fields):
    with pytest.raises(ProtocolError):
        RunRequest(**fields).validate()


def test_cluster_key_axes():
    base = RunRequest(n=64)
    assert base.cluster_key() == RunRequest(n=64).cluster_key()
    for other in (
        RunRequest(n=96),
        RunRequest(n=64, k=8),
        RunRequest(n=64, seed=1),
        RunRequest(n=64, scheme="powerlaw"),
        RunRequest(n=64, epoch=1),
        RunRequest(n=64, scenario="lollipop"),
    ):
        assert other.cluster_key() != base.cluster_key()
    # The algorithm is NOT part of the key: different algorithms on the
    # same input share one cluster build — the coalescing the service sells.
    assert RunRequest(n=64, algorithm="mst").cluster_key() == base.cluster_key()


def test_family_precedence_matches_cli():
    def family(request):
        return json.loads(request.graph_key())[0]

    assert family(RunRequest(family="path", scenario="lollipop")) == "path"
    assert family(RunRequest(scenario="lollipop")) == "lollipop"
    assert family(RunRequest()) == "gnm"


def test_weight_requiring_algorithm_forces_weighted_key():
    # mst needs weights even when the request says weighted=False, so its
    # graph key must not collide with a genuinely unweighted build.
    mst = RunRequest(algorithm="mst", weighted=False)
    conn = RunRequest(algorithm="connectivity", weighted=False)
    assert json.loads(mst.graph_key())[-1] is True
    assert json.loads(conn.graph_key())[-1] is False
    assert mst.graph_key() != conn.graph_key()


def test_names_of_one_input_share_its_keys():
    # The keys read the resolved input, not the name a request used: the
    # default, an explicit gnm and a gnm-family scenario on the uniform
    # placement are one graph and one cluster build.
    def request(**names):
        return RunRequest(n=64, seed=1, k=4, **names)

    base = request()
    for same in (request(family="gnm"), request(scenario="faulty_links")):
        assert same.graph_key() == base.graph_key()
        assert same.cluster_key() == base.cluster_key()
    lollipop = request(scenario="lollipop")
    assert lollipop.graph_key() != base.graph_key()
    assert lollipop.cluster_key() != base.cluster_key()
    # Same graph, different placement: one graph build, two clusters.
    skew = request(scenario="skew_powerlaw")
    assert skew.graph_key() == base.graph_key()
    assert skew.cluster_key() != base.cluster_key()


def test_build_graph_matches_generator_derivation():
    req = RunRequest(n=64, seed=5, weighted=False, algorithm="connectivity")
    expected = generators.gnm_random(64, 192, seed=derive_seed(5, 0x5CE0))
    got = req.build_graph()
    assert got.n == expected.n
    assert (got.edges_u == expected.edges_u).all()
    assert (got.edges_v == expected.edges_v).all()


def test_build_graph_scenario_path_matches_scenario():
    req = RunRequest(scenario="lollipop", n=64, seed=2)
    expected = sized_graph("lollipop", 64, derive_seed(2, 0x5CE0), weighted=True)
    got = req.build_graph()
    assert got.n == expected.n
    assert (got.edges_u == expected.edges_u).all()
    assert (got.edges_v == expected.edges_v).all()
    assert (got.weights == expected.weights).all()


# -- update streams ---------------------------------------------------------


def _storm_dict() -> dict:
    from repro.scenarios.updates import UpdateBatch, UpdatePlan

    return UpdatePlan(
        batches=(
            UpdateBatch(kind="mix", size=12, insert_fraction=0.5),
            UpdateBatch(kind="tree_delete", size=6),
        )
    ).to_dict()


def test_request_roundtrips_update_plan():
    from repro.scenarios.updates import UpdatePlan

    req = RunRequest(algorithm="mst_dynamic", n=96, seed=2, updates=_storm_dict())
    again = RunRequest.from_dict(req.to_dict())
    assert again == req
    cfg = again.run_config()
    assert cfg.updates == UpdatePlan.from_dict(_storm_dict())


def test_updates_do_not_split_the_cluster_key():
    # The stream mutates maintained state, not the cluster build: update
    # traffic must coalesce onto the same cached cluster as static traffic.
    static = RunRequest(algorithm="mst", n=64, seed=1)
    dynamic = RunRequest(algorithm="mst_dynamic", n=64, seed=1, updates=_storm_dict())
    assert dynamic.cluster_key() == static.cluster_key()
    assert dynamic.graph_key() == static.graph_key()


@pytest.mark.parametrize(
    "updates",
    [
        17,  # not an object
        {"batches": [{"kind": "meteor", "size": 4}]},  # bad kind
        {"batches": [], "surprise": 1},  # unknown key
    ],
)
def test_invalid_update_plan_is_a_protocol_error(updates):
    with pytest.raises(ProtocolError):
        RunRequest(algorithm="mst_dynamic", updates=updates).validate()


# -- decoder fuzzing ----------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-4, 64)
    | st.integers()
    | st.floats()
    | st.sampled_from(["nope", "gnm", "mst", "uniform", "true", "64"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)

#: One strategy of valid values per request field.
_VALID = {
    "algorithm": st.sampled_from(list_algorithms()),
    "family": st.none() | st.sampled_from(sizeable_families()),
    "scenario": st.none() | st.sampled_from(list_scenarios()),
    "n": st.integers(4, 4096),
    "seed": st.integers(0, 2**32),
    "k": st.integers(2, 64),
    "scheme": st.sampled_from(PARTITION_SCHEMES),
    "epoch": st.integers(0, 8),
    "weighted": st.booleans(),
    "updates": st.none() | st.builds(_storm_dict),
    "params": st.just({}),
    "corpus": st.none() | st.sampled_from(["gnm/abc_0", "path/x_1"]),
}


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional={key: valid | _JSON for key, valid in _VALID.items()}))
@example({"scenario": "nope"})
@example({"algorithm": "nope"})
def test_request_decoder_fuzz(data):
    # Any object over the request's keys decodes to a request whose keys,
    # config and algorithm resolve, or fails with ProtocolError or
    # ConfigError; it never raises anything else.
    try:
        request = RunRequest.from_dict(data)
    except (ProtocolError, ConfigError):
        return
    request.cluster_key()
    request.graph_key()
    request.run_config()
    get_algorithm(request.algorithm)
