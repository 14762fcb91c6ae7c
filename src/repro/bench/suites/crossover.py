"""The rounds crossover study: Theorem 1 vs log-diameter neighborhood doubling.

Both contenders run through the same registry envelope on the same graph,
bandwidth, and machine count, so the only variable is the algorithm —
exactly the comparison ``PAPER.md`` positions against the MPC line of
work (Andoni et al., arXiv:1805.03055):

* the sketch algorithm's rounds are diameter-independent but pay a large
  per-phase sketch volume (O(log^3 n) bits a message);
* neighborhood doubling converges in ~log2(D) doubling rounds, but each
  round ships whole balls — Theta(s) ids per vertex — so its round bill
  explodes with component size once balls saturate (``space_bound=None``
  on a clique-bearing graph), and collapses again when the MPC
  machine-space knob truncates them.

The grid sweeps family x bandwidth x space bound at matched (n, k); the
committed artifact must contain *both* outcomes (cells where doubling
wins the rounds bill and cells where it loses) or the study says nothing.
"""

from __future__ import annotations

from repro.bench.registry import register_benchmark
from repro.corpus.families import sized_graph
from repro.runtime import ClusterConfig, LogDiamConfig, RunConfig, Session


@register_benchmark(
    "crossover_logdiam",
    title="Theorem 1 vs neighborhood doubling: rounds vs diameter vs bandwidth",
    group="baseline",
    cells=[
        {"family": "lollipop", "n": 1024, "k": 8, "bandwidth_multiplier": 16,
         "space_bound": None},
        {"family": "lollipop", "n": 1024, "k": 8, "bandwidth_multiplier": 16,
         "space_bound": 8},
        {"family": "star_of_paths", "n": 1024, "k": 8, "bandwidth_multiplier": 64,
         "space_bound": 8},
        {"family": "gnm", "n": 1024, "k": 8, "bandwidth_multiplier": 64,
         "space_bound": None},
        {"family": "gnm", "n": 3072, "k": 8, "bandwidth_multiplier": 64,
         "space_bound": None},
    ],
    quick_cells=[
        {"family": "lollipop", "n": 192, "k": 8, "bandwidth_multiplier": 16,
         "space_bound": None},
        {"family": "lollipop", "n": 192, "k": 8, "bandwidth_multiplier": 16,
         "space_bound": 8},
        {"family": "star_of_paths", "n": 192, "k": 8, "bandwidth_multiplier": 64,
         "space_bound": 8},
        {"family": "gnm", "n": 512, "k": 8, "bandwidth_multiplier": 64,
         "space_bound": None},
        {"family": "gnm", "n": 2048, "k": 8, "bandwidth_multiplier": 64,
         "space_bound": None},
    ],
    seed=7,
)
def _crossover_logdiam(cell: dict, seed: int) -> dict:
    g = sized_graph(cell["family"], cell["n"], seed)
    config = RunConfig(
        seed=seed,
        cluster=ClusterConfig(
            k=cell["k"], bandwidth_multiplier=cell["bandwidth_multiplier"]
        ),
    )
    sketch = Session(g, config=config).run("connectivity")
    doubling = Session(
        g,
        config=config.with_overrides(
            logdiam=LogDiamConfig(space_bound=cell["space_bound"])
        ),
    ).run("connectivity_logdiam")
    assert sketch.result["n_components"] == doubling.result["n_components"]
    return {
        "sketch_rounds": int(sketch.rounds),
        "logdiam_rounds": int(doubling.rounds),
        "sketch_bits": int(sketch.total_bits),
        "logdiam_bits": int(doubling.total_bits),
        "doubling_rounds": int(doubling.result["doubling_rounds"]),
        "converged": bool(doubling.result["converged"]),
        "logdiam_wins_rounds": bool(doubling.rounds < sketch.rounds),
    }
