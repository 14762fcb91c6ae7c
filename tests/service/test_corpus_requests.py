"""Corpus-backed service traffic: protocol field, routing, shared mmap cache.

The ISSUE-9 service satellite: ``RunRequest.corpus`` rides the existing
wire protocol unchanged (excluded-when-unset, so committed envelopes stay
byte-identical), the entry id becomes the whole input identity in
``graph_key()``/``cluster_key()``, and all workers share one
:class:`~repro.corpus.manager.CorpusManager` — so two workers resolving
the same entry coalesce onto a single mmap open.
"""

from __future__ import annotations

import asyncio
import json
import zlib

import pytest

from repro.corpus.inputs import resolve_input
from repro.corpus.manager import CorpusManager
from repro.runtime.session import Session
from repro.service.protocol import ProtocolError, RunRequest, read_frame, write_frame
from repro.service.server import GraphService


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One small materialized corpus shared by every test in the module."""
    manager = CorpusManager(tmp_path_factory.mktemp("corpus"))
    manager.generate("gnm", {"n": 64, "m": 192, "weighted": True}, 0)
    manager.generate("path", {"n": 48}, 0)
    return manager


def _entry(corpus, family):
    (entry,) = [e for e in corpus.entries() if e.family == family]
    return entry


async def _exchange(host, port, *payloads):
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
    async def go():
        service = GraphService(**service_kwargs)
        host, port = await service.start("127.0.0.1", 0)
        try:
            return await coro_fn(service, host, port)
        finally:
            await service.aclose()

    return asyncio.run(go())


class TestProtocolField:
    def test_corpus_is_excluded_when_unset(self):
        # Committed loadgen envelopes predate the field; their byte form
        # must not change.
        assert "corpus" not in RunRequest(n=64, seed=1).to_dict()

    def test_corpus_round_trips(self):
        req = RunRequest(algorithm="mst", corpus="gnm/abc_0", k=4, seed=2)
        clone = RunRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert clone == req
        assert clone.corpus == "gnm/abc_0"

    def test_corpus_and_family_are_mutually_exclusive(self):
        req = RunRequest(corpus="gnm/abc_0", family="gnm")
        with pytest.raises(ProtocolError, match="mutually exclusive"):
            req.validate()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ProtocolError, match="corpus"):
            RunRequest(corpus="").validate()

    def test_corpus_identity_reaches_both_keys(self):
        req = RunRequest(corpus="gnm/abc_0", k=4)
        assert json.loads(req.graph_key()) == ["corpus", "gnm/abc_0"]
        assert json.loads(req.cluster_key())[:2] == ["corpus", "gnm/abc_0"]
        # Distinct entries are distinct identities.
        assert req.graph_key() != RunRequest(corpus="gnm/xyz_1", k=4).graph_key()


class TestServedCorpusRuns:
    def test_served_corpus_run_matches_local_session_bytes(self, corpus):
        entry = _entry(corpus, "gnm")
        req = RunRequest(algorithm="mst", corpus=entry.entry_id, seed=3, k=4)

        async def drive(service, host, port):
            (frames,) = await _exchange(
                host, port, {"op": "run", "id": 7, "request": req.to_dict()}
            )
            return frames[-1]

        frame = _serve(drive, workers=2, corpus=corpus)
        assert frame["ok"] and frame["final"] and frame["id"] == 7

        with Session(config=req.run_config()) as session:
            local = session.run("mst", corpus.load(entry.entry_id))
        assert frame["report"] == local.to_dict(include_timing=False)

    def test_unknown_entry_answers_error_frame(self, corpus):
        req = RunRequest(corpus="gnm/doesnotexist_0")

        async def drive(service, host, port):
            (frames,) = await _exchange(
                host, port, {"op": "run", "request": req.to_dict()}
            )
            return frames[-1]

        frame = _serve(drive, workers=1, corpus=corpus)
        assert frame["ok"] is False
        assert frame["error"]["type"] == "ProtocolError"
        assert "doesnotexist" in frame["error"]["message"]

    def test_two_workers_coalesce_onto_one_mmap_open(self, corpus):
        # Pick two requests for the SAME corpus entry whose cluster keys
        # land on DIFFERENT workers under CRC-32 affinity, by varying k.
        entry = _entry(corpus, "path")
        shared = CorpusManager(corpus.root)  # fresh counters over the same root
        reqs = [
            RunRequest(algorithm="connectivity", corpus=entry.entry_id, seed=1, k=k)
            for k in range(2, 10)
        ]
        by_worker = {}
        for req in reqs:
            slot = zlib.crc32(req.cluster_key().encode("utf-8")) % 2
            by_worker.setdefault(slot, req)
            if len(by_worker) == 2:
                break
        assert len(by_worker) == 2, "CRC affinity degenerated; widen the k range"
        first, second = by_worker.values()

        async def drive(service, host, port):
            await _exchange(host, port, {"op": "run", "request": first.to_dict()})
            await _exchange(host, port, {"op": "run", "request": second.to_dict()})
            return service.stats()

        stats = _serve(drive, workers=2, corpus=shared)
        # Each worker's private graph LRU missed once...
        assert stats["graphs"]["misses"] == 2
        # ...but the SHARED corpus manager opened the mmap exactly once:
        # the second worker's load coalesced onto the first one's entry.
        assert stats["corpus"]["misses"] == 1
        assert stats["corpus"]["hits"] == 1
        assert stats["corpus"]["size"] == 1

    def test_stats_reports_no_corpus_when_unconfigured(self):
        async def drive(service, host, port):
            (frames,) = await _exchange(host, port, {"op": "stats"})
            return frames[-1]

        frame = _serve(drive, workers=1)
        assert frame["stats"]["corpus"] is None


class TestSessionSharedCorpus:
    def test_two_sessions_share_one_corpus_cache(self, corpus):
        entry = _entry(corpus, "gnm")
        shared = CorpusManager(corpus.root)  # fresh counters over the same root
        with Session() as a, Session() as b:
            ra = a.run("connectivity", resolve_input(corpus=entry.entry_id, manager=shared))
            rb = b.run("connectivity", resolve_input(corpus=entry.entry_id, manager=shared))
        assert shared.cache_info()["misses"] == 1
        assert shared.cache_info()["hits"] == 1
        assert ra.to_dict(include_timing=False) == rb.to_dict(include_timing=False)

    def test_repeat_run_hits_session_cluster_cache(self, corpus):
        # The corpus LRU returns the SAME Graph object, so id(graph)
        # cluster keying composes: the second run reuses the cluster.
        entry = _entry(corpus, "gnm")
        with Session() as session:
            session.run("connectivity", corpus.load(entry.entry_id))
            before = session.cache_info()["hits"]
            session.run("connectivity", corpus.load(entry.entry_id))
            assert session.cache_info()["hits"] == before + 1
