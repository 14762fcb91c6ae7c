"""Pieces shared by the batch and service workloads of the benchmark."""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

#: The checkout root; the benchmark runs the code under its ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Knobs that would move the measured code off its default path.
CLEAN_ENV = ("REPRO_PARALLEL", "REPRO_SKETCH_PRUNE", "REPRO_CORPUS_DIR")


@dataclass
class Outcome:
    """What one workload run reports.

    ``detail`` carries per-op facts that must repeat exactly between two
    runs of one seed (model rounds, phase counts) for ``compare.py``;
    ``spans`` the recorded spans of a traced run, by recorder.
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict = field(default_factory=dict)
    spans: dict[str, list] = field(default_factory=dict)


def seed_stream(workload: str, seed: int) -> Iterator[int]:
    """Per-op input seeds, derived only from the workload and ``--seed``."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(31)


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def reference_ok(algorithm: str, graph, result: dict) -> bool:
    """Whether an envelope's ``result`` matches the sequential reference."""
    from repro.graphs import reference

    if algorithm == "connectivity":
        labels = reference.connected_components(graph)
        return (
            result["labels"] == labels.tolist()
            and result["n_components"] == int(np.unique(labels).size)
        )
    ids = reference.kruskal_mst(graph)
    want = sorted(zip(graph.edges_u[ids].tolist(), graph.edges_v[ids].tolist()))
    u, v = np.asarray(result["edges_u"]), np.asarray(result["edges_v"])
    got = sorted(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    return got == want and math.isclose(
        result["total_weight"], reference.mst_weight(graph, ids)
    )


def phase_counts(report: dict) -> tuple[int, int]:
    """``(phases, retry phases)`` of one envelope.

    A retry phase merged nothing: every sample failed, so the phase ran
    again with fresh randomness.  The last phase of a converged run also
    merges nothing, and is not a retry.
    """
    stats = report["phase_stats"]
    idle = sum(1 for p in stats if p["components_end"] == p["components_start"])
    return len(stats), idle - (1 if report["result"].get("converged") else 0)
