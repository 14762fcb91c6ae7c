"""GraphService: byte-identity, coalescing, streaming, errors, shutdown.

All tests drive a real server over loopback inside one ``asyncio.run``:
the full wire path, not a shortcut through internals.
"""

from __future__ import annotations

import asyncio
import struct

from repro.runtime.session import Session
from repro.service.protocol import RunRequest, read_frame, write_frame
from repro.service.server import GraphService


async def _exchange(host, port, *payloads):
    """Open one connection, send each payload, collect its frame stream."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        all_frames = []
        for payload in payloads:
            await write_frame(writer, payload)
            frames = []
            while True:
                frame = await read_frame(reader)
                assert frame is not None, "server closed mid-response"
                frames.append(frame)
                if frame.get("final"):
                    break
            all_frames.append(frames)
        return all_frames
    finally:
        writer.close()
        await writer.wait_closed()


def _serve(coro_fn, **service_kwargs):
    """Start a service, run ``coro_fn(service, host, port)``, tear down."""

    async def go():
        service = GraphService(**service_kwargs)
        host, port = await service.start("127.0.0.1", 0)
        try:
            return await coro_fn(service, host, port)
        finally:
            await service.aclose()

    return asyncio.run(go())


def _direct_envelope(req: RunRequest) -> dict:
    """What an uncoalesced local Session produces for the same request."""
    with Session() as session:
        report = session.run(
            req.algorithm, req.build_graph(), config=req.run_config(), epoch=req.epoch
        )
    return report.to_dict(include_timing=False)


def test_served_run_matches_local_session_bytes():
    req = RunRequest(algorithm="connectivity", n=64, seed=3, k=4)

    async def drive(service, host, port):
        (frames,) = await _exchange(
            host, port, {"op": "run", "id": 1, "request": req.to_dict()}
        )
        return frames[-1]

    frame = _serve(drive)
    assert frame["ok"] and frame["final"] and frame["id"] == 1
    assert frame["report"] == _direct_envelope(req)
    assert frame["service"]["coalesced"] is False


def test_scenario_run_matches_local_session_bytes():
    req = RunRequest(algorithm="connectivity", scenario="lollipop", n=64, seed=2, k=4)

    async def drive(service, host, port):
        (frames,) = await _exchange(
            host, port, {"op": "run", "request": req.to_dict()}
        )
        return frames[-1]

    frame = _serve(drive)
    assert frame["report"] == _direct_envelope(req)
    assert frame["report"]["config"]["cluster"]["partition"]["scheme"] is not None


def test_coalesced_repeat_is_byte_identical():
    req = {"op": "run", "request": RunRequest(n=64, seed=1).to_dict()}

    async def drive(service, host, port):
        first, second = await _exchange(host, port, req, req)
        return first[-1], second[-1], service.stats()

    a, b, stats = _serve(drive)
    assert a["service"]["coalesced"] is False
    assert b["service"]["coalesced"] is True
    assert a["report"] == b["report"]  # the cached cluster changes nothing
    assert stats["clusters"]["hits"] == 1
    assert stats["clusters"]["misses"] == 1
    assert stats["graphs"]["hits"] == 1


def test_two_names_for_one_input_share_one_build():
    # No scenario and faulty_links both resolve to G(n, 3n) on the uniform
    # placement: the second request rides the first's graph and cluster
    # builds, and its own fault plan still shapes its envelope.
    plain = RunRequest(n=64, seed=1)
    faulty = RunRequest(n=64, seed=1, scenario="faulty_links")

    async def drive(service, host, port):
        first, second = await _exchange(
            host,
            port,
            {"op": "run", "request": plain.to_dict()},
            {"op": "run", "request": faulty.to_dict()},
        )
        return first[-1], second[-1], service.stats()

    a, b, stats = _serve(drive)
    assert a["service"]["coalesced"] is False
    assert b["service"]["coalesced"] is True
    assert b["service"]["worker"] == a["service"]["worker"]
    assert stats["clusters"]["misses"] == 1
    assert stats["graphs"]["misses"] == 1
    assert b["report"] == _direct_envelope(faulty)


def test_sweep_streams_every_grid_point():
    request = RunRequest(n=64, seed=0, k=2).to_dict()

    async def drive(service, host, port):
        (frames,) = await _exchange(
            host,
            port,
            {"op": "sweep", "id": 9, "request": request, "ks": [2, 3], "seeds": [0, 1]},
        )
        return frames

    frames = _serve(drive)
    assert len(frames) == 5  # 4 grid points + summary
    assert all(not f["final"] for f in frames[:-1])
    assert frames[-1] == {"ok": True, "final": True, "op": "sweep", "id": 9, "count": 4}
    grid = [(f["report"]["config"]["cluster"]["k"], f["report"]["seed"]) for f in frames[:-1]]
    assert grid == [(2, 0), (2, 1), (3, 0), (3, 1)]  # k-major, like Session.sweep


def test_sweep_rejects_malformed_axes_and_keeps_connection():
    # Each axis is a JSON list of ints, decoded like the request's own int
    # fields: no string, no scalar, no bool, no fractional float, no null
    # entry.  Every point is validated before any runs, so k = 1 runs
    # nothing either.  Absent, null and [] mean the request's own value.
    request = RunRequest(n=64, seed=0, k=2).to_dict()
    bad_axes = [
        {"ks": "23"},
        {"ks": [2.9], "seeds": [True]},
        {"ks": 5},
        {"seeds": [None]},
        {"ks": [3, 1]},
    ]

    async def drive(service, host, port):
        sweeps = [
            {"op": "sweep", "id": i, "request": request, **axes} for i, axes in enumerate(bad_axes)
        ]
        frames = await _exchange(
            host,
            port,
            *sweeps,
            {"op": "sweep", "id": 7, "request": request, "ks": None, "seeds": []},
            {"op": "ping", "id": 8},
        )
        return frames, service.stats()

    (*bad, default, ping), stats = _serve(drive)
    for i, frames in enumerate(bad):
        assert len(frames) == 1, bad_axes[i]  # an error frame and no report
        assert frames[0]["ok"] is False and frames[0]["id"] == i
        assert frames[0]["error"]["type"] == "ProtocolError", bad_axes[i]
    assert "ks must be a list of ints" in bad[0][0]["error"]["message"]
    assert "expects int" in bad[1][0]["error"]["message"]
    assert "k must be" in bad[4][0]["error"]["message"]
    assert stats["requests"]["runs"] == 1  # only the default sweep's point ran
    assert len(default) == 2 and default[0]["report"]["seed"] == 0
    assert default[0]["report"]["config"]["cluster"]["k"] == 2
    assert ping[-1]["ok"] is True


def test_bad_request_answers_error_and_keeps_connection():
    async def drive(service, host, port):
        return await _exchange(
            host,
            port,
            {"op": "run", "id": 1, "request": {"n": 2}},
            {"op": "run", "id": 2, "request": {"algorithm": "nope", "n": 64}},
            {"op": "nosuchop", "id": 3},
            {"op": "run", "id": 5, "request": [["n", 64]]},
            {"op": "run", "id": 6, "request": {"scenario": "nope", "n": 64}},
            {"op": "ping", "id": 4},
        )

    bad_n, bad_algo, bad_op, bad_shape, bad_scenario, ping = _serve(drive)
    assert bad_n[-1]["ok"] is False and bad_n[-1]["id"] == 1
    assert "n must be" in bad_n[-1]["error"]["message"]
    assert bad_algo[-1]["ok"] is False and bad_algo[-1]["error"]["type"] == "ProtocolError"
    assert bad_algo[-1]["error"]["message"].startswith("unknown algorithm 'nope'; available:")
    assert bad_scenario[-1]["ok"] is False and bad_scenario[-1]["error"]["type"] == "ProtocolError"
    assert bad_scenario[-1]["error"]["message"].startswith("unknown scenario 'nope'; available:")
    assert bad_op[-1]["ok"] is False and "unknown op" in bad_op[-1]["error"]["message"]
    assert bad_shape[-1]["ok"] is False and bad_shape[-1]["error"]["type"] == "ProtocolError"
    assert ping[-1]["ok"] is True  # five failures later, the link still works


def test_wire_corruption_drops_connection_with_error_frame():
    async def drive(service, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(struct.pack(">I", 2**31))  # absurd length prefix
            await writer.drain()
            frame = await read_frame(reader)
            assert frame is not None and frame["ok"] is False
            assert frame["op"] == "protocol"
            assert await reader.read() == b""  # server hung up
        finally:
            writer.close()
            await writer.wait_closed()
        # A fresh connection is unaffected.
        (frames,) = await _exchange(host, port, {"op": "ping"})
        return frames[-1]

    assert _serve(drive)["ok"] is True


def test_introspection_ops():
    async def drive(service, host, port):
        (sc,) = await _exchange(host, port, {"op": "scenarios"})
        (bench,) = await _exchange(host, port, {"op": "bench_info"})
        (stats,) = await _exchange(host, port, {"op": "stats"})
        return sc[-1], bench[-1], stats[-1]

    sc, bench, stats = _serve(drive)
    names = {s["name"] for s in sc["scenarios"]}
    assert "lollipop" in names and "faulty_links" in names
    bench_names = {b["name"] for b in bench["benchmarks"]}
    assert {"service_throughput", "service_latency"} <= bench_names
    assert stats["stats"]["workers"] == 2
    assert stats["stats"]["requests"]["by_op"]["scenarios"] == 1


def test_shutdown_op_releases_wait_closed():
    async def go():
        service = GraphService(workers=1)
        host, port = await service.start("127.0.0.1", 0)
        try:
            (frames,) = await _exchange(host, port, {"op": "shutdown"})
            assert frames[-1]["ok"] is True
            await asyncio.wait_for(service.wait_closed(), timeout=5)
        finally:
            await service.aclose()

    asyncio.run(go())


def test_max_requests_self_terminates():
    async def go():
        service = GraphService(workers=1, max_requests=2)
        host, port = await service.start("127.0.0.1", 0)
        try:
            await _exchange(host, port, {"op": "ping"}, {"op": "ping"})
            await asyncio.wait_for(service.wait_closed(), timeout=5)
        finally:
            await service.aclose()

    asyncio.run(go())


def test_key_affinity_is_stable():
    service = GraphService(workers=4)
    key = RunRequest(n=64).cluster_key()
    picks = {service._worker_for(key).index for _ in range(10)}
    assert len(picks) == 1  # same key, same worker, every time

    async def go():
        await service.aclose()

    asyncio.run(go())


def test_served_dynamic_update_run_matches_local_session_bytes():
    from repro.scenarios.updates import UpdateBatch, UpdatePlan

    plan = UpdatePlan(
        batches=(
            UpdateBatch(kind="mix", size=12, insert_fraction=0.5),
            UpdateBatch(kind="tree_delete", size=6),
        )
    )
    dyn = RunRequest(algorithm="mst_dynamic", n=96, seed=3, k=4, updates=plan.to_dict())
    static = RunRequest(algorithm="mst", n=96, seed=3, k=4)

    async def drive(service, host, port):
        first, second = await _exchange(
            host,
            port,
            {"op": "run", "id": 1, "request": static.to_dict()},
            {"op": "run", "id": 2, "request": dyn.to_dict()},
        )
        return first[-1], second[-1]

    a, b = _serve(drive)
    # The update stream rides the cached cluster the static run built...
    assert a["service"]["coalesced"] is False
    assert b["service"]["coalesced"] is True
    # ...and the served envelope is byte-identical to a local Session run.
    assert b["report"] == _direct_envelope(dyn)
    assert b["report"]["result"]["updates_applied"] > 0
