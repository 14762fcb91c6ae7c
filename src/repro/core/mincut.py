"""O(log n)-approximate min-cut in O~(n/k^2) rounds (Theorem 3).

Section 3.2: sample edges with exponentially growing probabilities and test
connectivity, leveraging Karger's sampling theorem [18] — a graph with edge
connectivity lambda stays connected w.h.p. when edges survive independently
with probability p >= c ln(n) / lambda, and disconnects w.h.p. once
p << ln(n) / lambda.  Scanning p_i = 2^-i for i = 0, 1, ... and finding the
first level i* whose sampled subgraph disconnects brackets lambda within an
O(log n) factor:

    lambda_hat = 2^(i*) * ln n.

The sampling is a shared hash of the edge slot, so every machine knows
locally which of its edges survive — no communication beyond the
connectivity tests, whose rounds dominate (each O~(n/k^2), times
O(log m) levels, absorbed in the O~ notation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.core.connectivity import connected_components_distributed
from repro.runtime.config import SketchConfig
from repro.util.rng import SeedStream, derive_seed

__all__ = ["MinCutResult", "MinCutLevel", "mincut_approx_distributed"]


@dataclass(frozen=True)
class MinCutLevel:
    """Diagnostics of one sampling level."""

    level: int
    sample_probability: float
    edges_kept: int
    n_components: int
    rounds: int


@dataclass
class MinCutResult:
    """Output of the approximate min-cut algorithm.

    Attributes
    ----------
    estimate:
        ``lambda_hat = 2^(i*) * ln n`` — within an O(log n) factor of the
        true edge connectivity w.h.p. (and ``0`` for disconnected inputs).
    disconnect_level:
        The first sampling level i* whose subgraph disconnected.
    rounds:
        Total rounds across all connectivity tests.
    levels:
        Per-level diagnostics.
    """

    estimate: float
    disconnect_level: int
    rounds: int
    levels: list[MinCutLevel] = field(default_factory=list)


def mincut_approx_distributed(
    cluster: KMachineCluster,
    seed: int = 0,
    *,
    sketch: SketchConfig | None = None,
    max_levels: int | None = None,
    max_phases: int | None = None,
) -> MinCutResult:
    """Run the Theorem-3 algorithm on ``cluster``; charges its ledger.

    This is the implementation behind the ``"mincut"`` registry entry (see
    :mod:`repro.runtime`); prefer ``Session.run("mincut", ...)`` for new
    code.  ``sketch`` is defaulted and validated on entry as in
    :func:`~repro.core.connectivity.connected_components_distributed`, and
    every level's connectivity test runs with it.

    The input is treated as unweighted (edge connectivity); weighted
    min-cut reduces to this by standard edge multiplication, which the
    experiments do not need.  ``max_phases`` applies to each internal
    per-level connectivity test.
    """
    sketch = (sketch if sketch is not None else SketchConfig()).validate()
    n = cluster.n
    g = cluster.graph
    levels: list[MinCutLevel] = []
    budget = max_levels if max_levels is not None else max(2, math.ceil(math.log2(max(g.m, 2))) + 2)
    stream = SeedStream(derive_seed(seed, 0x3C07))
    slot_key = (g.edges_u.astype(np.uint64) * np.uint64(n) + g.edges_v.astype(np.uint64))
    u01 = stream.keyed_uniform(slot_key)
    disconnect_level = -1
    for i in range(budget):
        p = 2.0**-i
        mask = u01 < p
        res = connected_components_distributed(
            cluster.with_graph(g.subgraph(mask)),
            seed=derive_seed(seed, 0xC17, i),
            sketch=sketch,
            max_phases=max_phases,
        )
        levels.append(
            MinCutLevel(
                level=i,
                sample_probability=p,
                edges_kept=int(mask.sum()),
                n_components=res.n_components,
                rounds=res.rounds,
            )
        )
        if res.n_components > 1:
            disconnect_level = i
            break
    if disconnect_level < 0:
        # Never disconnected within budget: min cut exceeds the scan range.
        disconnect_level = budget
    if levels and levels[0].n_components > 1:
        estimate = 0.0  # the input graph itself is disconnected
    else:
        estimate = (2.0**disconnect_level) * math.log(max(n, 2))
    return MinCutResult(
        estimate=estimate,
        disconnect_level=disconnect_level,
        rounds=sum(level.rounds for level in levels),
        levels=levels,
    )
