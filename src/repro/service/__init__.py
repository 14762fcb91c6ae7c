"""repro.service — the always-on graph service (server + load generator).

The runtime API (:mod:`repro.runtime`) made every run a one-shot: build a
graph, build a cluster, run, exit.  This package keeps the expensive state
*warm*: a stdlib-only :mod:`asyncio` server owns a pool of
:class:`~repro.runtime.session.Session` workers whose bounded LRU cluster
caches persist across requests, so concurrent ``run`` / ``sweep`` traffic
sharing a *(resolved input, seed, k, partition, epoch)* cluster key
coalesces onto one cached cluster build instead of re-partitioning the
graph per request.

Three layers, all stdlib + the already-present numpy stack:

* :mod:`repro.service.protocol` — a thin length-prefixed JSON wire
  protocol (4-byte big-endian length + UTF-8 JSON per frame) and the
  typed :class:`~repro.service.protocol.RunRequest` unit of traffic.
* :mod:`repro.service.server` — :class:`~repro.service.server.GraphService`:
  key-affinity dispatch onto single-threaded session workers (which is
  what makes coalescing accounting deterministic), per-op handlers
  (``run`` / ``sweep`` / ``scenarios`` / ``bench_info`` / ``stats`` /
  ``ping`` / ``shutdown``), and byte-deterministic
  ``include_timing=False`` report envelopes on the wire.
* :mod:`repro.service.loadgen` — seeded deterministic request mixes drawn
  from the scenario registry, open/closed-loop arrival, latency
  percentiles, and coalescing hit-rate accounting
  (:class:`~repro.service.loadgen.LoadgenResult`).

Determinism policy (DESIGN.md §10): everything a perf gate sees — request
counts, coalesce hits, model rounds/bits, the SHA-256 over every served
envelope — is a pure function of the seeded mix; wall-clock throughput
and latency are advisory only.  ``repro serve`` / ``repro loadgen`` are
the CLI faces; ``BENCH_service_*`` the measured traffic axis.
"""

from repro.service.loadgen import (
    LoadgenOptions,
    LoadgenResult,
    MixSpec,
    build_mix,
    run_loadgen,
    run_with_local_service,
)
from repro.service.protocol import ProtocolError, RunRequest, read_frame, write_frame
from repro.service.server import GraphService

__all__ = [
    "GraphService",
    "LoadgenOptions",
    "LoadgenResult",
    "MixSpec",
    "ProtocolError",
    "RunRequest",
    "build_mix",
    "read_frame",
    "run_loadgen",
    "run_with_local_service",
    "write_frame",
]
