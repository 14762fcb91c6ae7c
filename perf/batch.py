"""Batch workloads: one algorithm over a stream of large random graphs.

Each op generates a fresh G(n, m) from its own seed and builds its cluster
(the set-up), times ``Session.run`` (the op), and then, untimed, checks the
serialized envelope against the sequential reference.  Ops repeat until
``--seconds`` have passed, after one untimed warm-up op.

With tracing on, every op runs twice on the same cluster, once with the
layer wrappers installed and once without, in alternating order; the pair
gives ``trace.overhead_ratio`` and the traced run gives the layer split.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.graphs import generators
from repro.runtime import ClusterConfig, RunConfig, Session

from perf import trace
from perf.common import Outcome, phase_counts, reference_ok, seed_stream

#: Timed ops per run even when one op outlasts ``--seconds``.
MIN_OPS = 3


@dataclass(frozen=True)
class BatchWorkload:
    """One algorithm on G(n, m) with k machines."""

    algorithm: str
    n: int
    m: int
    k: int
    weighted: bool


WORKLOADS = {
    # Theorem 1's headline input.  Components start at n, so the dense
    # (groups x R x L) sketch tensors and sample's full-tensor scans
    # dominate and set peak memory; the only workload where PartIndex.build
    # and the DRR merges register.
    "conn-sparse": BatchWorkload("connectivity", 32768, 3 * 32768, 8, False),
    # About 15 live incidences per dense tensor cell: per-incidence hashing
    # in SketchContext and the scatter dominate, not the dense tensors.
    "conn-dense": BatchWorkload("connectivity", 4096, 48 * 4096, 8, False),
    # Theorem 2's elimination loop: about 140 sketch calls per run on
    # shrinking frontiers, with dense-tensor work dominating.
    "mst-sparse": BatchWorkload("mst", 8192, 4 * 8192, 8, True),
}


def _setup(w: BatchWorkload, session: Session, seed: int, recorder: trace.Recorder | None):
    """Generate the op's graph and build its cluster; return (graph, config, wall)."""
    t0 = time.perf_counter()
    with recorder.span("graphs.generate") if recorder else nullcontext():
        graph = generators.gnm_random(w.n, w.m, seed=seed)
        if w.weighted:
            graph = generators.with_unique_weights(graph, seed=seed)
    config = RunConfig(seed=seed, cluster=ClusterConfig(k=w.k))
    session.cluster_for(graph, config.cluster, seed)
    return graph, config, time.perf_counter() - t0


def _timed_run(w: BatchWorkload, session: Session, graph, config, recorder):
    """``Session.run`` on the cached cluster; return (report, wall)."""
    t0 = time.perf_counter()
    with recorder.span("op") if recorder else nullcontext():
        report = session.run(w.algorithm, graph, config=config)
    return report, time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, traced: bool) -> Outcome:
    """Run workload ``name`` for ``seconds``; end-to-end or per-layer metrics."""
    w = WORKLOADS[name]
    # One cluster at a time: each op's cluster is dropped before the next
    # set-up, so peak memory does not grow with the number of ops.
    session = Session(max_clusters=1)
    setup_rec, op_rec = trace.Recorder(), trace.Recorder()
    seeds = seed_stream(name, seed)
    records: list[dict] = []
    failed = 0

    def one(op_seed: int, traced_first: bool) -> dict:
        nonlocal failed
        with trace.installed(setup_rec) if traced else nullcontext():
            graph, config, setup_s = _setup(w, session, op_seed, setup_rec if traced else None)
        walls, reports, envelopes = {}, {}, {}
        for with_trace in (traced_first, not traced_first) if traced else (False,):
            recorder = op_rec if with_trace else None
            with trace.installed(recorder) if recorder else nullcontext():
                reports[with_trace], walls[with_trace] = _timed_run(
                    w, session, graph, config, recorder
                )
                envelopes[with_trace] = reports[with_trace].to_json(include_timing=False)
        session.clear_cache()
        envelope = json.loads(envelopes[traced])
        # The traced and untraced runs of one op must agree byte for byte.
        if len(set(envelopes.values())) != 1 or not reference_ok(
            w.algorithm, graph, envelope["result"]
        ):
            failed += 1
        phases, retries = phase_counts(envelope)
        return {
            "seed": op_seed,
            "setup_s": setup_s,
            "run_s": walls[False],
            "traced_s": walls.get(True),
            "execute_s": reports[traced].wall_time_s,
            "envelope_bytes": len(envelopes[traced]),
            "rounds": reports[traced].rounds,
            "phases": phases,
            "retry_phases": retries,
        }

    # Warm-up: one untimed op with a seed outside the timed set; its spans
    # are dropped.
    one(next(seeds), traced_first=False)
    setup_rec.spans.clear()
    op_rec.spans.clear()
    start = time.perf_counter()
    while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
        records.append(one(next(seeds), traced_first=len(records) % 2 == 1))

    count = len(records)
    detail = {
        "ops": [{k: r[k] for k in ("seed", "rounds", "phases", "retry_phases")} for r in records]
    }
    if not traced:
        # Medians throughout: a run holds only a few ops, and a mean lets one
        # op that a host stall slowed set the value.
        run_p50 = statistics.median(r["run_s"] for r in records)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "run_s_p50": run_p50,
            "edges_per_s": w.m / run_p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return Outcome(count + 1, failed, metrics, detail)

    metrics = trace.layer_metrics(op_rec.spans, setup_rec.spans, ops=count, setups=count)
    metrics.update(
        {
            "core.phases": statistics.fmean(r["phases"] for r in records),
            "core.retry_phases": statistics.fmean(r["retry_phases"] for r in records),
            "core.rounds": statistics.fmean(r["rounds"] for r in records),
            "op.execute_s": statistics.fmean(r["execute_s"] for r in records),
            "op.outside_execute_s": statistics.fmean(
                r["traced_s"] - r["execute_s"] for r in records
            ),
            "op.envelope_bytes": statistics.fmean(r["envelope_bytes"] for r in records),
            "trace.coverage": trace.coverage(op_rec.spans, "op"),
            "trace.overhead_ratio": statistics.median(r["traced_s"] / r["run_s"] for r in records)
            - 1.0,
        }
    )
    spans = {"setup": setup_rec.spans, "ops": op_rec.spans}
    return Outcome(count + 1, failed, metrics, detail, spans)
