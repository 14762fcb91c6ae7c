"""Dynamic-update benchmarks: amortized batch cost vs recompute-from-scratch.

The claim that justifies maintaining state at all (DESIGN.md §11): once
the Theorem-2 structure is built, applying a batch of edge updates costs
O(1)-ish rounds, strictly below re-running the full build on the mutated
graph.  ``dynamic_update_cost`` pins that gap per worst-case family and
per batch kind:

* ``build_rounds`` — the initial distributed Theorem-2 build;
* ``update_rounds`` / ``amortized_update_rounds`` — total and per-batch
  cost of replaying the plan against the maintained forest;
* ``recompute_rounds`` — a fresh full build on the *final* edge set, the
  cost every batch avoids paying;
* ``correct`` — the maintained answer equals that fresh recompute
  (weight and component count), the differential-suite invariant at
  benchmark scale.

A drift in the update pricing, the batch generators, or the maintained
structure itself lands in these gated metrics and fails CI.
"""

from __future__ import annotations

import math

from repro.bench.registry import register_benchmark
from repro.bench.runner import metrics_from_report
from repro.core.dynamic import MaintainedForest, generate_batch
from repro.corpus.families import sized_graph
from repro.runtime.config import ClusterConfig, RunConfig
from repro.runtime.session import Session
from repro.scenarios.updates import UpdateBatch, UpdatePlan, batch_seed
from repro.util.rng import derive_seed

__all__: list[str] = []


def _input_graph(n: int, seed: int, family: str):
    """The benchmark input at size ``n``, with unique weights attached."""
    return sized_graph(family, n, derive_seed(seed, n, 0x5CE), weighted=True)


#: Update plans of one batch kind each, shared by both tiers: the benign
#: mixed stream, the adversarial all-tree-deletions stream (a replacement
#: search per update), and churn concentrated on one hot component.
_UPDATE_PLANS = {
    "mixed": UpdatePlan(
        batches=tuple(UpdateBatch(kind="mix", size=24, insert_fraction=0.5) for _ in range(4))
    ),
    "tree_delete": UpdatePlan(
        batches=tuple(UpdateBatch(kind="tree_delete", size=12) for _ in range(4))
    ),
    "hot_component": UpdatePlan(
        batches=tuple(
            UpdateBatch(kind="hot_component", size=16, insert_fraction=0.6) for _ in range(4)
        )
    ),
}

_FAMILIES = ("gnm", "lollipop", "disjoint_cliques")


@register_benchmark(
    "dynamic_update_cost",
    title="Dynamic MST: amortized batch-update rounds vs recompute-from-scratch",
    group="scenario",
    cells=[
        {"n": 2048, "k": 8, "family": f, "plan": p} for f in _FAMILIES for p in _UPDATE_PLANS
    ],
    quick_cells=[
        {"n": 256, "k": 4, "family": "gnm", "plan": p} for p in _UPDATE_PLANS
    ]
    + [{"n": 256, "k": 4, "family": "lollipop", "plan": "mixed"}],
    seed=7,
)
def _update_cost(cell: dict, seed: int) -> dict:
    n, k = int(cell["n"]), int(cell["k"])
    family, plan_name = str(cell["family"]), str(cell["plan"])
    plan = _UPDATE_PLANS[plan_name]
    g = _input_graph(n, seed, family)
    config = RunConfig(seed=seed, cluster=ClusterConfig(k=k), updates=plan)
    report = Session(g, config=config).run("mst_dynamic")
    res = report.result

    # Recompute oracle: replay the identical stream sequentially to obtain
    # the final edge set, then pay for a fresh full Theorem-2 build on it —
    # the from-scratch cost every maintained batch amortizes against.
    state = MaintainedForest(g)
    base = plan.base_seed(seed)
    for i, spec in enumerate(plan.batches):
        generate_batch(state, spec, batch_seed(base, i))
    re_report = Session(
        state.as_graph(), config=RunConfig(seed=seed, cluster=ClusterConfig(k=k))
    ).run("mst")
    # Relative tolerance: totals reach ~1e8 on the big families, where one
    # float64 ulp (~3e-8) already exceeds any absolute 1e-9 cutoff; the
    # two sides sum the same weights in different orders.
    correct = (
        math.isclose(
            res["total_weight"], re_report.result["total_weight"], rel_tol=1e-9, abs_tol=1e-9
        )
        and res["n_components"] == re_report.result["n_components"]
    )
    n_batches = len(plan.batches)
    return metrics_from_report(
        report,
        build_rounds=int(res["build_rounds"]),
        update_rounds=int(res["update_rounds"]),
        amortized_update_rounds=res["update_rounds"] / n_batches,
        recompute_rounds=int(re_report.rounds),
        updates_applied=int(res["updates_applied"]),
        correct=correct,
    )
