"""The always-on graph service: warm sessions, coalescing, framed JSON.

:class:`GraphService` owns a fixed pool of *workers*, each a
single-threaded executor wrapping one warm
:class:`~repro.runtime.session.Session` (bounded LRU cluster cache, see
DESIGN.md §10) plus a bounded LRU graph cache.  Every ``run`` dispatches
by **key affinity**: the request's canonical cluster key is hashed
(CRC-32, stable across processes) onto one worker, so all traffic sharing
a *(resolved input, seed, k, partition, epoch)* key lands on the same
session and serializes there — whichever family, scenario or default
named that input.  That single decision buys three things:

* **coalescing** — in-flight and subsequent same-key requests reuse the
  one cached cluster build instead of racing to re-partition;
* **safety** — runs sharing a cluster never execute concurrently (a run
  resets and mutates the cluster ledger), with no per-run locking;
* **determinism** — the first request for a key is a cache miss and every
  later one a hit, *independent of arrival interleaving*, so the
  coalescing hit-rate is a pure function of the request mix and safe to
  perf-gate (``BENCH_service_*``).

Reports cross the wire as ``RunReport.to_dict(include_timing=False)`` —
the byte-deterministic envelope — with per-request wall time carried in a
separate advisory ``service`` section.  Ops: ``run``, ``sweep``
(streamed), ``scenarios``, ``bench_info``, ``stats``, ``ping``,
``shutdown``.  Protocol details live in :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any

from repro.corpus.families import CorpusParam
from repro.runtime.session import Session
from repro.service.protocol import ProtocolError, RunRequest, read_frame, write_frame

__all__ = ["GraphService"]


class _Worker:
    """One service worker: a serial executor around a warm session.

    The executor's single thread is the serialization point — everything
    that touches this worker's session or graph cache runs inside it, so
    the worker needs no locks of its own beyond the session's.
    """

    def __init__(
        self,
        index: int,
        max_clusters: int,
        graph_cache_size: int,
        corpus=None,
    ) -> None:
        self.index = index
        self.corpus = corpus
        self.session = Session(max_clusters=max_clusters)
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-service-{index}"
        )
        self.graph_cache_size = max(1, int(graph_cache_size))
        self.graphs: OrderedDict[str, Any] = OrderedDict()
        self.graph_hits = 0
        self.graph_misses = 0
        self.inflight: dict[str, int] = {}

    def _graph_for(self, spec: RunRequest):
        """The (LRU-cached) input graph for one request.

        ``corpus`` requests additionally go through the *service-shared*
        corpus manager, so two workers resolving one corpus entry coalesce
        onto a single mmap open even before their per-worker LRUs warm up.
        """
        key = spec.graph_key()
        hit = self.graphs.get(key)
        if hit is not None:
            self.graph_hits += 1
            self.graphs.move_to_end(key)
            return hit
        self.graph_misses += 1
        graph = spec.build_graph(corpus=self.corpus)
        self.graphs[key] = graph
        while len(self.graphs) > self.graph_cache_size:
            self.graphs.popitem(last=False)
        return graph

    def execute(self, spec: RunRequest) -> dict:
        """Run one request to a response body (executor thread only)."""
        t0 = time.perf_counter()
        graph = self._graph_for(spec)
        config = spec.run_config()
        before = self.session.cache_info()
        report = self.session.run(spec.algorithm, graph, config=config, epoch=spec.epoch)
        after = self.session.cache_info()
        return {
            "report": report.to_dict(include_timing=False),
            "service": {
                "worker": self.index,
                "coalesced": after["hits"] > before["hits"],
                "cluster_key": spec.cluster_key(),
                "wall_time_s": time.perf_counter() - t0,
            },
        }

    def close(self) -> None:
        """Shut down the worker's executor and release its caches."""
        self.executor.shutdown(wait=True, cancel_futures=True)
        self.session.close()
        self.graphs.clear()


class GraphService:
    """The asyncio server over the worker pool (see module docstring).

    Parameters
    ----------
    workers:
        Session workers; each key's traffic serializes on exactly one.
    max_clusters:
        Per-worker cluster-cache bound (``Session(max_clusters=...)``);
        size it above the mix's per-worker distinct-key count to keep
        coalescing accounting eviction-free and hence deterministic.
    graph_cache_size:
        Per-worker input-graph LRU bound.
    max_requests:
        Stop accepting after this many completed requests (``None`` =
        serve forever) — the self-terminating mode tests and smoke runs
        use instead of process management.
    corpus:
        Optional :class:`~repro.corpus.manager.CorpusManager` shared by
        *all* workers: ``RunRequest.corpus`` entries resolve through its
        single load LRU, so same-entry requests on different workers
        still open one mmap.  ``None`` leaves corpus requests resolving
        through a per-call default manager.

    Runs execute only on the workers, one request at a time per worker on
    its single executor thread; nothing inside a run is parallel.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        max_clusters: int = 32,
        graph_cache_size: int = 16,
        max_requests: int | None = None,
        corpus=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._corpus = corpus
        self._workers = [
            _Worker(i, max_clusters, graph_cache_size, corpus) for i in range(int(workers))
        ]
        self._max_requests = max_requests
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = time.perf_counter()
        self._counters = {
            "requests": 0,
            "errors": 0,
            "runs": 0,
            "reports_streamed": 0,
            "inflight_coalesced": 0,
        }
        self._by_op: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; return the (host, port) actually bound."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sock_host, sock_port = self._server.sockets[0].getsockname()[:2]
        return str(sock_host), int(sock_port)

    async def wait_closed(self) -> None:
        """Block until a shutdown is requested (op, or max_requests hit)."""
        await self._stop.wait()

    def request_shutdown(self) -> None:
        """Flag the service to stop (idempotent; safe from the event loop)."""
        self._stop.set()

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, drain connections, close workers."""
        self.request_shutdown()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        tasks = [t for t in self._conn_tasks if not t.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Executor shutdown blocks on in-flight runs: do it off-loop.
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.close)

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """Aggregated counters (deterministic parts + advisory parts).

        ``clusters`` / ``graphs`` aggregate the per-worker cache counters —
        under key-affinity dispatch and an eviction-free mix these are pure
        functions of the mix.  ``inflight_coalesced`` (requests that
        arrived while a same-key request was already executing) and
        ``uptime_s`` depend on real-time interleaving: advisory only.
        """
        sessions = [w.session.cache_info() for w in self._workers]
        return {
            "workers": len(self._workers),
            "requests": dict(self._counters, by_op=dict(sorted(self._by_op.items()))),
            "clusters": {
                "hits": sum(s["hits"] for s in sessions),
                "misses": sum(s["misses"] for s in sessions),
                "evictions": sum(s["evictions"] for s in sessions),
                "size": sum(s["size"] for s in sessions),
                "max_clusters": sessions[0]["max_clusters"] if sessions else 0,
            },
            "graphs": {
                "hits": sum(w.graph_hits for w in self._workers),
                "misses": sum(w.graph_misses for w in self._workers),
                "size": sum(len(w.graphs) for w in self._workers),
            },
            "corpus": None if self._corpus is None else self._corpus.cache_info(),
            "uptime_s": time.perf_counter() - self._started,
        }

    # -- request handling --------------------------------------------------

    def _worker_for(self, cluster_key: str) -> _Worker:
        """Key-affinity dispatch: CRC-32 of the canonical key, mod workers."""
        return self._workers[zlib.crc32(cluster_key.encode("utf-8")) % len(self._workers)]

    async def _execute(self, spec: RunRequest) -> dict:
        """Run one request on its affine worker; track in-flight coalescing."""
        key = spec.cluster_key()
        worker = self._worker_for(key)
        pending = worker.inflight.get(key, 0)
        if pending:
            self._counters["inflight_coalesced"] += 1
        worker.inflight[key] = pending + 1
        loop = asyncio.get_running_loop()
        try:
            body = await loop.run_in_executor(worker.executor, worker.execute, spec)
        finally:
            left = worker.inflight.get(key, 1) - 1
            if left:
                worker.inflight[key] = left
            else:
                worker.inflight.pop(key, None)
        self._counters["runs"] += 1
        self._counters["reports_streamed"] += 1
        return body

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while not self._stop.is_set():
                try:
                    msg = await read_frame(reader)
                except ProtocolError as exc:
                    # Wire-level corruption: report once, drop the link.
                    with contextlib.suppress(Exception):
                        await write_frame(
                            writer, _error_frame(None, exc, op="protocol")
                        )
                    break
                if msg is None:
                    break
                await self._dispatch(msg, writer)
                if self._should_stop():
                    self.request_shutdown()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            # CancelledError included: aclose() cancels connection tasks and
            # a cancelled wait_closed must not escape into the loop's
            # exception handler as teardown noise.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    def _should_stop(self) -> bool:
        return (
            self._max_requests is not None
            and self._counters["requests"] >= self._max_requests
        )

    async def _dispatch(self, msg: dict, writer: asyncio.StreamWriter) -> None:
        """Answer one request frame with its response frame stream.

        Request-level failures (unknown op/algorithm/scenario, invalid
        fields, a run raising) answer an error frame and keep the
        connection alive — one bad request must not take down a client's
        pipeline.
        """
        op = str(msg.get("op", ""))
        req_id = msg.get("id")
        self._counters["requests"] += 1
        self._by_op[op] = self._by_op.get(op, 0) + 1
        try:
            if op == "run":
                spec = _request_of(msg)
                body = await self._execute(spec)
                await write_frame(
                    writer, {"ok": True, "final": True, "op": op, "id": req_id, **body}
                )
            elif op == "sweep":
                await self._op_sweep(msg, writer, req_id)
            elif op == "ping":
                await write_frame(
                    writer,
                    {"ok": True, "final": True, "op": op, "id": req_id,
                     "server": {"workers": len(self._workers)}},
                )
            elif op == "stats":
                await write_frame(
                    writer,
                    {"ok": True, "final": True, "op": op, "id": req_id,
                     "stats": self.stats()},
                )
            elif op == "scenarios":
                from repro.scenarios.registry import get_scenario, list_scenarios

                listing = [get_scenario(name).to_dict() for name in list_scenarios()]
                await write_frame(
                    writer,
                    {"ok": True, "final": True, "op": op, "id": req_id,
                     "scenarios": listing},
                )
            elif op == "bench_info":
                from repro.bench import get_benchmark, list_benchmarks

                listing = [
                    {
                        "name": name,
                        "title": spec.title,
                        "group": spec.group,
                        "cells": len(spec.cells),
                        "quick_cells": len(spec.quick_cells),
                        "seed": spec.seed,
                    }
                    for name, spec in (
                        (n, get_benchmark(n)) for n in list_benchmarks()
                    )
                ]
                await write_frame(
                    writer,
                    {"ok": True, "final": True, "op": op, "id": req_id,
                     "benchmarks": listing},
                )
            elif op == "shutdown":
                await write_frame(
                    writer, {"ok": True, "final": True, "op": op, "id": req_id}
                )
                self.request_shutdown()
            else:
                raise ProtocolError(f"unknown op {op!r}")
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # request-level: answer and carry on
            self._counters["errors"] += 1
            with contextlib.suppress(Exception):
                await write_frame(writer, _error_frame(req_id, exc, op=op))

    async def _op_sweep(self, msg: dict, writer: asyncio.StreamWriter, req_id) -> None:
        """Stream one report frame per (k, seed) grid point, then a summary.

        Grid order is k-major then seed, matching ``Session.sweep``; each
        point is an independent coalescible request, so a sweep warms the
        same caches run traffic hits.  Every point is decoded and validated
        before the first one runs, so a bad axis answers one error frame.
        """
        spec = _request_of(msg)
        ks, seeds = _sweep_axis(msg, "ks", spec.k), _sweep_axis(msg, "seeds", spec.seed)
        points = [replace(spec, k=k, seed=seed).validate() for k in ks for seed in seeds]
        for point in points:
            body = await self._execute(point)
            await write_frame(
                writer,
                {"ok": True, "final": False, "op": "sweep", "id": req_id, **body},
            )
        await write_frame(
            writer,
            {"ok": True, "final": True, "op": "sweep", "id": req_id, "count": len(points)},
        )


def _sweep_axis(msg: dict, key: str, default: int) -> list[int]:
    """A sweep axis: a JSON list of ints; absent, null or ``[]`` means ``[default]``."""
    values = msg.get(key)
    if values is None or values == []:
        return [default]
    if not isinstance(values, list):
        raise ProtocolError(f"{key} must be a list of ints, got {values!r}")
    decode = CorpusParam(key, "int", 0).coerce
    try:
        return [decode(value) for value in values]
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _request_of(msg: dict) -> RunRequest:
    """The frame's request; only an absent or null one means the default."""
    data = msg.get("request")
    return RunRequest.from_dict({} if data is None else data)


def _error_frame(req_id, exc: BaseException, *, op: str) -> dict:
    return {
        "ok": False,
        "final": True,
        "op": op,
        "id": req_id,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
