"""Built-in registry adapters for the paper algorithms and the baselines.

Each adapter maps the uniform ``(cluster, config, seed)`` convention onto
one of the repository's free functions and returns a JSON-safe
:class:`~repro.runtime.registry.RunnerOutput`.  The free functions remain
the implementation (and the backward-compatible public API); the adapters
only translate configuration and flatten results into the envelope schema.

Registered names::

    paper:    connectivity, connectivity_logdiam, mst, mst_dynamic, mincut, verify
    baseline: flooding, boruvka_nosketch, referee, rep

This module is imported lazily by the registry (first call to
``list_algorithms()`` / ``get_algorithm()``), keeping the
``core -> runtime.config`` import edge acyclic.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from repro.baselines.boruvka_nosketch import boruvka_nosketch
from repro.baselines.flooding import flooding_connectivity
from repro.baselines.referee import referee_connectivity
from repro.baselines.rep import rep_connectivity, rep_mst
from repro.core import verify as verify_mod
from repro.core.connectivity import connected_components_distributed
from repro.core.dynamic import dynamic_msf_updates
from repro.core.labels import canonical_labels
from repro.core.logdiam import logdiam_connectivity
from repro.core.mincut import mincut_approx_distributed
from repro.core.mst import minimum_spanning_tree_distributed
from repro.runtime.config import ConfigError, LogDiamConfig, RunConfig
from repro.runtime.registry import RunnerOutput, register_algorithm

__all__: list[str] = []


def _sketch_kwargs(config: RunConfig) -> dict:
    """The kwargs vocabulary shared by the connectivity-based algorithms."""
    return {
        "repetitions": config.sketch.repetitions,
        "hash_family": config.sketch.hash_family,
        "max_phases": config.max_phases,
        "charge_shared_randomness": config.charge_shared_randomness,
    }


@register_algorithm(
    "connectivity",
    summary="Theorem 1: connected components in O~(n/k^2) rounds (sketches + proxies + DRR)",
    kind="paper",
)
def _run_connectivity(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    res = connected_components_distributed(cluster, seed, **_sketch_kwargs(config))
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "phases": res.phases,
            "converged": res.converged,
            "labels": canonical_labels(res.labels),
            "forest_edges": int(res.forest_u.size),
            "forest_u": res.forest_u,
            "forest_v": res.forest_v,
            "forest_machine": res.forest_machine,
        },
        phase_stats=[asdict(s) for s in res.phase_stats],
    )


@register_algorithm(
    "connectivity_logdiam",
    summary="ASSW'18 rival: neighborhood-doubling connectivity, O(log D) doubling "
    "rounds with space-bounded balls (config.logdiam: space_bound, doubling_budget)",
    kind="paper",
    sections=("faults", "churn", "logdiam"),
)
def _run_connectivity_logdiam(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    ld = config.logdiam if config.logdiam is not None else LogDiamConfig()
    # The budget vocabulary is shared with the sketch family: an explicit
    # doubling_budget wins, else the run-wide phase budget applies.  The
    # sketch section and charge_shared_randomness are meaningless here
    # (deterministic, sketch-free) and are ignored — DESIGN.md §12.
    budget = ld.doubling_budget if ld.doubling_budget is not None else config.max_phases
    res = logdiam_connectivity(
        cluster,
        seed,
        space_bound=ld.space_bound,
        doubling_budget=budget,
    )
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "doubling_rounds": res.doubling_rounds,
            "converged": res.converged,
            "space_bound": res.space_bound,
            "labels": canonical_labels(res.labels),
        },
        phase_stats=[asdict(s) for s in res.phase_stats],
    )


@register_algorithm(
    "mst",
    summary="Theorem 2: minimum spanning tree via MWOE elimination (relaxed/strict output)",
    kind="paper",
    requires_weights=True,
)
def _run_mst(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    res = minimum_spanning_tree_distributed(
        cluster,
        seed,
        output=config.params.get("output", "relaxed"),
        strict_elimination_budget=config.params.get("strict_elimination_budget"),
        **_sketch_kwargs(config),
    )
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "n_edges": res.n_edges,
            "total_weight": res.total_weight,
            "certified": res.certified,
            "converged": res.converged,
            "phases": res.phases,
            "edges_u": res.edges_u,
            "edges_v": res.edges_v,
            "edge_weights": res.edge_weights,
            "owner_machine": res.owner_machine,
        },
        phase_stats=[asdict(s) for s in res.phase_stats],
    )


@register_algorithm(
    "mst_dynamic",
    summary="Dynamic MST: Theorem-2 build, then batched edge updates in O(1)-ish "
    "rounds per batch against the maintained forest (config.updates)",
    kind="paper",
    requires_weights=True,
    sections=("faults", "churn", "updates"),
)
def _run_mst_dynamic(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    res = dynamic_msf_updates(
        cluster,
        seed,
        config.updates,
        **_sketch_kwargs(config),
    )
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "n_edges": res.n_edges,
            "total_weight": res.total_weight,
            "final_m": res.final_m,
            "labels": canonical_labels(res.labels),
            "forest_u": res.forest_u,
            "forest_v": res.forest_v,
            "forest_weights": res.forest_weights,
            "build_rounds": res.build_rounds,
            "update_rounds": res.update_rounds,
            "update_bits": res.update_bits,
            "batches_applied": len(res.batch_stats),
            "updates_applied": res.updates_applied,
            "initial_certified": res.initial.certified,
            "initial_converged": res.initial.converged,
            "initial_total_weight": res.initial.total_weight,
        },
        phase_stats=[asdict(s) for s in res.initial.phase_stats] + res.batch_stats,
    )


@register_algorithm(
    "mincut",
    summary="Theorem 3: O(log n)-approximate min-cut via Karger-style sampling levels",
    kind="paper",
)
def _run_mincut(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    res = mincut_approx_distributed(
        cluster,
        seed,
        max_levels=config.params.get("max_levels"),
        **_sketch_kwargs(config),
    )
    return RunnerOutput(
        result={
            "estimate": res.estimate,
            "disconnect_level": res.disconnect_level,
            "levels_scanned": len(res.levels),
        },
        phase_stats=[asdict(lv) for lv in res.levels],
    )


#: Verification problems runnable without extra per-edge inputs.
_VERIFY_PROBLEMS = ("bipartiteness", "cycle_containment", "st_connectivity")


@register_algorithm(
    "verify",
    summary="Theorem 4: graph verification via connectivity reductions "
    "(params: problem=bipartiteness|cycle_containment|st_connectivity)",
    kind="paper",
)
def _run_verify(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    problem = config.params.get("problem", "bipartiteness")
    kw = _sketch_kwargs(config)
    if problem == "bipartiteness":
        res = verify_mod.bipartiteness(cluster, seed=seed, **kw)
    elif problem == "cycle_containment":
        res = verify_mod.cycle_containment(cluster, seed=seed, **kw)
    elif problem == "st_connectivity":
        s = int(config.params.get("s", 0))
        t = int(config.params.get("t", cluster.n - 1))
        res = verify_mod.st_connectivity(cluster, s, t, seed=seed, **kw)
    else:
        raise ConfigError(
            f"params['problem'] must be one of {_VERIFY_PROBLEMS}, got {problem!r}"
        )
    return RunnerOutput(
        result={"problem": problem, "answer": res.answer, "detail": dict(res.detail)}
    )


@register_algorithm(
    "flooding",
    summary="Baseline: label flooding, Theta(n/k + D) rounds (Giraph-style)",
    kind="baseline",
)
def _run_flooding(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    res = flooding_connectivity(cluster, max_cc_rounds=config.params.get("max_cc_rounds"))
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "cc_rounds": res.cc_rounds,
            "labels": canonical_labels(res.labels),
        }
    )


@register_algorithm(
    "boruvka_nosketch",
    summary="Baseline: GHS-style Boruvka without sketches/proxies, O~(n/k) rounds",
    kind="baseline",
)
def _run_boruvka_nosketch(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    res = boruvka_nosketch(cluster, seed, max_phases=config.max_phases)
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "phases": res.phases,
            "total_weight": res.total_weight,
            "n_edges": int(res.edges_u.size),
            "labels": canonical_labels(res.labels),
        }
    )


@register_algorithm(
    "referee",
    summary="Baseline: gather every edge at one referee machine, Theta~(m/k) rounds",
    kind="baseline",
)
def _run_referee(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    res = referee_connectivity(cluster, referee=config.params.get("referee"))
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "labels": canonical_labels(res.labels),
        }
    )


@register_algorithm(
    "rep",
    summary="Baseline: random edge partition model, Theta~(n/k) filter-and-convert "
    "(params: mst=true for the footnote-5 MST variant)",
    kind="baseline",
    requires_weights=lambda params: bool(params.get("mst")),
    graph_only=True,
    # Churn re-homes vertices; the REP model has no vertex partition.
    sections=("faults",),
)
def _run_rep(cluster, config: RunConfig, seed: int) -> RunnerOutput:
    fn = rep_mst if config.params.get("mst") else rep_connectivity
    if config.cluster.partition_seed is not None:
        # REP scatters *edges*, not vertices; a pinned vertex-partition seed
        # cannot apply, and silently recording it would corrupt provenance.
        raise ConfigError("rep uses a random edge partition; partition_seed is not applicable")
    if config.cluster.partition.scheme != "uniform":
        # REP scatters edges; a vertex-placement scheme cannot apply.
        raise ConfigError(
            "rep uses a random edge partition; partition schemes are not applicable"
        )
    res = fn(
        cluster.graph,
        cluster.k,
        seed,
        bandwidth_multiplier=config.cluster.bandwidth_multiplier,
        bandwidth_bits=config.cluster.bandwidth_bits,
        faults=config.faults,
        repetitions=config.sketch.repetitions,
        hash_family=config.sketch.hash_family,
        max_phases=config.max_phases,
        charge_shared_randomness=config.charge_shared_randomness,
    )
    weight = None if math.isnan(res.total_weight) else float(res.total_weight)
    return RunnerOutput(
        result={
            "n_components": res.n_components,
            "total_weight": weight,
            "reroute_rounds": res.reroute_rounds,
            "filtered_edges": res.filtered_edges,
        },
        # The REP model scatters edges over its own internal cluster; its
        # ledger is reported via the result dataclass, not the input cluster.
        ledger=res.ledger_totals,
    )
