"""The service-mix workload: a closed loop of short requests against ``repro serve``.

The server runs in its own process (``perf/serve.py``, which calls
``repro.cli.main(["serve", ...])``) with 2 workers and a 64-cluster cache;
this process drives it over 2 connections from one asyncio thread.  Each
connection sends its next request only after the previous reply, because
every current caller of the service waits for its reply.

Requests are short, so per-call overhead, contention between the worker
threads and key-affinity queueing dominate; a change that adds per-call
cost shows up here even when it helps the batch workloads.

The traffic is ``build_mix`` from ``repro.service.loadgen`` (see
:func:`_mix`): 300 requests for connectivity and MST on n in {128, 256,
512}, k in {4, 8}, over 4 graph seeds, with a 0.75 chance that a request
revisits an earlier cluster key.  The timed drive cycles through the mix
until ``--seconds`` have passed.

Set-up is spawn -> listening -> a warm-up pass, over one connection, of
one request per distinct (algorithm, cluster key) in the mix, so the timed
drive measures warm caches; it runs :data:`SETUPS` times and the last
server serves the timed drive.  Every served answer is checked against the
sequential reference after the drive, and repeated requests must return
byte-identical envelopes.

A traced run uses one server and alternates: each slice of the mix runs
once untraced and once traced, in alternating order, with the trace
switched between them (see ``perf/serve.py``).  The traced halves give the
layer split, both halves ``trace.overhead_ratio``.

This workload is not among the ``BENCHMARK.json`` workloads, so no bound
gates it: on a 2-CPU host the client and the two worker threads contend
for the cores, and its median latency moved by 17% of itself between runs
of one seed (see perf/README.md).  Run it by name.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.service.loadgen import MixSpec, build_mix
from repro.service.protocol import encode_frame, read_frame, write_frame

from perf import trace
from perf.common import CLEAN_ENV, ROOT, Outcome, p90, phase_counts, reference_ok

WORKERS = 2
CONNECTIONS = 2
MAX_CLUSTERS = 64
SETUPS = 3
MIX_REQUESTS = 300
MIX_SEED = 0
GRAPH_SEEDS = 4
#: Requests per slice of a traced run; each slice runs untraced and traced.
SLICE = 10
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0


def _mix(seed: int) -> list:
    """The drive's requests: one fixed ``build_mix`` draw over graphs from ``seed``.

    ``seed`` picks the graph seeds, and the mix seed stays fixed.  The hot-key
    draw of 300 requests makes few fresh draws, so when the mix seed
    followed ``seed`` the share of each (algorithm, n) class in the requests
    a drive reaches changed from seed to seed, and the median latency with
    it: it sits where connectivity ends and MST begins.
    """
    graph_seeds = random.Random(f"service-mix:{seed}").sample(range(1 << 20), GRAPH_SEEDS)
    spec = MixSpec(
        algorithms=("connectivity", "mst"),
        ns=(128, 256, 512),
        ks=(4, 8),
        seeds=tuple(graph_seeds),
        hot_fraction=0.75,
    )
    return build_mix(MIX_REQUESTS, MIX_SEED, spec)


def _warmup_requests(mix: list) -> list:
    """One request per distinct (algorithm, cluster key), in mix order."""
    first: dict[tuple[str, str], object] = {}
    for request in mix:
        first.setdefault((request.algorithm, request.cluster_key()), request)
    return list(first.values())


async def _exchange(reader, writer, payload: dict) -> dict:
    """One request frame out, one reply frame back."""
    await write_frame(writer, payload)
    frame = await read_frame(reader)
    if frame is None:
        raise EOFError("server closed the connection")
    return frame


async def _drive(
    host: str, port: int, items, seconds: float | None = None, connections: int = CONNECTIONS
) -> tuple[list[dict], float, float]:
    """Closed loop over ``connections`` connections; return (records, start, end).

    ``items`` yields ``(index, request)``; no request starts after
    ``seconds``.
    """
    records: list[dict] = []
    items = iter(items)
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    async def client() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while deadline is None or time.perf_counter() < deadline:
                item = next(items, None)
                if item is None:
                    return
                index, request = item
                t0 = time.perf_counter()
                try:
                    frame = await asyncio.wait_for(
                        _exchange(reader, writer, {"op": "run", "request": request.to_dict()}),
                        REQUEST_TIMEOUT_S,
                    )
                except (OSError, EOFError, ValueError) as exc:
                    # Timeouts land here too; the connection is unusable after one.
                    records.append({"index": index, "request": request, "error": repr(exc)})
                    return
                latency = time.perf_counter() - t0
                records.append(
                    {"index": index, "request": request, "frame": frame, "latency_s": latency}
                )
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    await asyncio.gather(*(client() for _ in range(connections)))
    return records, start, time.perf_counter()


class _Server:
    """One ``perf/serve.py`` child process on an ephemeral loopback port."""

    def __init__(self, workdir: Path, tag: str, traced: bool) -> None:
        self.port_file = workdir / f"{tag}.port"
        self.out_file = workdir / f"{tag}.json"
        self.err_file = workdir / f"{tag}.err"
        self.switches = 0
        env = {k: v for k, v in os.environ.items() if k not in CLEAN_ENV}
        cmd = [
            sys.executable, str(ROOT / "perf" / "serve.py"),
            "--trace", "1" if traced else "0", "--out", str(self.out_file),
            "serve", "--port", "0", "--port-file", str(self.port_file),
            "--workers", str(WORKERS), "--max-clusters", str(MAX_CLUSTERS),
        ]  # fmt: skip
        with open(self.err_file, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err
            )

    async def _poll(self, path: Path, what: str, done) -> str:
        """Wait until ``path`` holds a complete line that ``done`` accepts."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode}: "
                    f"{self.err_file.read_text(errors='replace')[-2000:]}"
                )
            with contextlib.suppress(FileNotFoundError):
                text = path.read_text()
                if text.endswith("\n") and done(text):
                    return text
            await asyncio.sleep(0.001)
        raise TimeoutError(f"server did not {what}")

    async def address(self) -> tuple[str, int]:
        """Wait until the server listens; return its (host, port)."""
        host, port = (await self._poll(self.port_file, "start listening", bool)).split()
        return host, int(port)

    async def switch_trace(self) -> None:
        """Take the trace off or put it back; return once the server has done so."""
        self.switches += 1
        os.kill(self.proc.pid, signal.SIGUSR1)
        want = f"{self.switches}\n"
        await self._poll(Path(f"{self.out_file}.switches"), "switch the trace", want.__eq__)

    async def stop(self, host: str, port: int) -> dict:
        """Send ``shutdown``, wait for the exit, and return the launcher's output."""
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await asyncio.wait_for(_exchange(reader, writer, {"op": "shutdown"}), REQUEST_TIMEOUT_S)
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
        code = await asyncio.to_thread(self.proc.wait, REQUEST_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        return json.loads(self.out_file.read_text())

    def kill(self) -> None:
        """Make sure the process is gone (after an error)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def _setup(server: _Server, mix: list) -> tuple[str, int, list[dict], float]:
    """Wait for ``server`` and warm it up; return (host, port, records, set-up wall)."""
    t0 = time.perf_counter()
    host, port = await server.address()
    # One connection: the cold requests hold the interpreter lock for most
    # of their time, so a second one makes the pass no shorter, only noisier.
    warm, _, _ = await _drive(host, port, enumerate(_warmup_requests(mix)), connections=1)
    return host, port, warm, time.perf_counter() - t0


async def _untraced(workdir: Path, mix: list, seconds: float) -> dict:
    """:data:`SETUPS` set-ups; the last server serves the timed drive."""
    setups, warm = [], []
    for i in range(SETUPS):
        server = _Server(workdir, f"setup{i}", traced=False)
        try:
            host, port, records, setup_s = await _setup(server, mix)
            setups.append(setup_s)
            warm += records
            timed, start, end = [], 0.0, 0.0
            if i == SETUPS - 1:
                timed, start, end = await _drive(
                    host, port, enumerate(itertools.cycle(mix)), seconds
                )
            out = await server.stop(host, port)
        finally:
            server.kill()
    return dict(setups=setups, warm=warm, timed=timed, wall=end - start, out=out)


async def _traced(workdir: Path, mix: list, seconds: float) -> dict:
    """One traced server; slices of the mix alternate untraced/traced until ``seconds``."""
    server = _Server(workdir, "traced", traced=True)
    try:
        host, port, warm, _ = await _setup(server, mix)
        drive_start = time.perf_counter()
        items = enumerate(itertools.cycle(mix))
        ratios = []
        timed: dict[bool, list[dict]] = {False: [], True: []}
        tracing = True
        for i in itertools.count():
            if time.perf_counter() - drive_start >= seconds:
                break
            chunk = list(itertools.islice(items, SLICE))
            walls = {}
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced != tracing:
                    await server.switch_trace()
                    tracing = traced
                records, start, end = await _drive(host, port, chunk)
                walls[traced] = end - start
                timed[traced] += records
            ratios.append(walls[True] / walls[False])
        out = await server.stop(host, port)
    finally:
        server.kill()
    return dict(warm=warm, timed=timed, ratios=ratios, drive_start=drive_start, out=out)


def _failures(records: list[dict]) -> int:
    """Errors, wrong answers and non-repeating envelopes among ``records``.

    Each distinct request is checked once against the reference; every
    repeat of it must have received the same envelope bytes.
    """
    served = [r for r in records if _ok(r)]
    keys = [json.dumps(r["request"].to_dict(), sort_keys=True) for r in served]
    envelopes: dict[str, set[str]] = {}
    correct: dict[str, bool] = {}
    for key, r in zip(keys, served):
        envelopes.setdefault(key, set()).add(json.dumps(r["frame"]["report"], sort_keys=True))
        if key not in correct:
            request = r["request"]
            correct[key] = reference_ok(
                request.algorithm, request.build_graph(), r["frame"]["report"]["result"]
            )
    wrong = sum(1 for key in keys if len(envelopes[key]) != 1 or not correct[key])
    return len(records) - len(served) + wrong


def _ok(record: dict) -> bool:
    return "frame" in record and bool(record["frame"].get("ok"))


def _served(records: list[dict]) -> list[dict]:
    return sorted((r for r in records if _ok(r)), key=lambda r: r["index"])


def _detail(served: list[dict]) -> dict:
    ops = []
    for r in served:
        phases, retries = phase_counts(r["frame"]["report"])
        ops.append(
            {
                "index": r["index"],
                "rounds": r["frame"]["report"]["ledger"]["rounds"],
                "phases": phases,
                "retry_phases": retries,
            }
        )
    return {"ops": ops}


def _end_to_end(run: dict) -> Outcome:
    records = run["warm"] + run["timed"]
    served = _served(run["timed"])
    if not served:
        raise RuntimeError("no request of the timed drive was served")
    latencies = [r["latency_s"] for r in served]
    metrics = {
        "setup_s": statistics.median(run["setups"]),
        "run_s_p50": statistics.median(latencies),
        "edges_per_s": sum(r["frame"]["report"]["graph"]["m"] for r in served) / run["wall"],
        "peak_rss_mb": run["out"]["peak_rss_mb"],
    }
    detail = _detail(served)
    detail["drive"] = {
        "requests": len(served),
        "latency_p90_s": p90(latencies),
        "throughput_rps": len(served) / run["wall"],
    }
    return Outcome(len(records), _failures(records), metrics, detail)


def _per_layer(run: dict) -> Outcome:
    plain, traced = (run["timed"][flag] for flag in (False, True))
    records = run["warm"] + plain + traced
    served = _served(traced)
    if not served:
        raise RuntimeError("no request of the traced drive was served")
    spans = [trace.Span(*row) for row in run["out"]["spans"]]
    setup_spans = [s for s in spans if s.start < run["drive_start"]]
    roots = [s.id for s in spans if s.name == "service.execute" and s.start >= run["drive_start"]]
    op_spans = trace.subtree(spans, roots)
    executes = [r["frame"]["service"]["wall_time_s"] for r in served]
    per_worker = Counter(r["frame"]["service"]["worker"] for r in served)
    counts = [per_worker.get(w, 0) for w in range(WORKERS)]
    detail = _detail(served)
    metrics = trace.layer_metrics(op_spans, setup_spans, ops=len(served), setups=1)
    metrics.update(
        {
            "core.phases": statistics.fmean(d["phases"] for d in detail["ops"]),
            "core.retry_phases": statistics.fmean(d["retry_phases"] for d in detail["ops"]),
            "core.rounds": statistics.fmean(d["rounds"] for d in detail["ops"]),
            "op.execute_s": statistics.fmean(executes),
            "op.outside_execute_s": statistics.fmean(
                r["latency_s"] - e for r, e in zip(served, executes)
            ),
            "op.envelope_bytes": statistics.fmean(len(encode_frame(r["frame"])) for r in served),
            "trace.coverage": trace.coverage(op_spans, "service.execute"),
            # Both halves of a slice ran the same requests; the median
            # keeps one slice hit by a host stall from setting the value.
            "trace.overhead_ratio": statistics.median(run["ratios"]) - 1.0,
        }
    )
    # Max over mean requests per worker: key-affinity imbalance.
    detail["drive"] = {"worker_skew": max(counts) / statistics.fmean(counts)}
    return Outcome(len(records), _failures(records), metrics, detail, {"server": spans})


async def _run(seed: int, seconds: float, traced: bool) -> Outcome:
    mix = _mix(seed)
    with tempfile.TemporaryDirectory(prefix=".perf-tmp-", dir=ROOT) as tmp:
        if traced:
            return _per_layer(await _traced(Path(tmp), mix, seconds))
        return _end_to_end(await _untraced(Path(tmp), mix, seconds))


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    """Run the service-mix workload (see module docstring)."""
    return asyncio.run(_run(seed, seconds, traced))
