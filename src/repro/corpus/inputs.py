"""One resolver from a named input to its graph (DESIGN.md §3).

A run's input is named by a corpus entry, a family, a scenario, or
nothing (benign G(n, 3n)), plus a size and a seed.  The CLI and
``RunRequest.build_graph`` both call :func:`resolve_input`, so one
nominal input is one graph on every surface; a library caller does the
same and hands the graph to ``Session``.  The resolver owns three rules:

* **precedence** — corpus entry > family > scenario family > ``gnm``;
* **seed** — the graph seed is derived (``derive_seed``, one fixed
  salt) from the seed the caller passes: the run seed, or an explicit
  graph seed (``--graph-seed``) in its place;
* **weights** — overlaid at the graph seed when the request asks for
  them or the algorithm requires them, as the algorithm registry alone
  decides (:meth:`~repro.runtime.registry.AlgorithmSpec.needs_weights`).
  A corpus entry that lacks required weights is rejected, never
  re-weighted: its bytes are immutable.

:func:`generated_input` applies the precedence and weight rules to a
generated input; ``RunRequest.graph_key`` and ``cluster_key`` read it
too, so the service keys its caches on the family and weights
:func:`resolve_input` builds, however a request named them.
Generated inputs are built by :func:`~repro.corpus.families.sized_graph`.
"""

from __future__ import annotations

from typing import Mapping

from repro.corpus.families import sized_graph
from repro.corpus.manager import CorpusManager
from repro.graphs.graph import Graph
from repro.util.rng import derive_seed

__all__ = ["generated_input", "resolve_input"]


def generated_input(
    *,
    family: str | None = None,
    scenario=None,
    weighted: bool = False,
    algorithm: str | None = None,
    params: Mapping | None = None,
) -> tuple[str, bool]:
    """The family a generated input is built from, and whether it is weighted.

    The precedence and weight rules of the module docstring for inputs
    that are not corpus entries: ``family`` > the scenario's family >
    ``gnm``; weights when asked for (the scenario's own ``weighted``
    flag when the scenario supplies the family) or when ``algorithm``
    with ``params`` requires them.
    """
    if family is None and scenario is not None:
        from repro.scenarios.registry import get_scenario

        sc = get_scenario(scenario)
        family, weighted = sc.family, sc.weighted
    return family or "gnm", bool(weighted or _requires_weights(algorithm, params))


def resolve_input(
    *,
    n: int = 256,
    seed: int = 0,
    family: str | None = None,
    scenario=None,
    corpus: str | None = None,
    weighted: bool = False,
    algorithm: str | None = None,
    params: Mapping | None = None,
    overrides: Mapping | None = None,
    manager: CorpusManager | None = None,
) -> Graph:
    """Build (or load) the input graph a run request names.

    Parameters
    ----------
    n / seed:
        Requested vertex count, and the seed the graph seed derives
        from: the run seed, or an explicit graph seed in its place.
    family / scenario / corpus:
        The input's name, resolved by the precedence in the module
        docstring; ``scenario`` is a registered name or a
        :class:`~repro.scenarios.registry.Scenario`.
    weighted / algorithm / params:
        Whether the request asks for unique edge weights, and the
        algorithm to be run with its params (see :func:`generated_input`).
    overrides:
        Family params that replace the family's size rule values.
    manager:
        The corpus manager that loads ``corpus`` entries (default root
        when omitted).
    """
    if corpus is not None:
        g = (manager if manager is not None else CorpusManager()).load(corpus)
        if _requires_weights(algorithm, params) and not g.weighted:
            raise ValueError(
                f"algorithm {algorithm!r} requires weights but corpus entry "
                f"{corpus!r} is unweighted; materialize a weighted=true cell instead"
            )
        return g
    family, weighted = generated_input(
        family=family, scenario=scenario, weighted=weighted, algorithm=algorithm, params=params
    )
    return sized_graph(family, n, derive_seed(seed, 0x5CE0), weighted=weighted, params=overrides)


def _requires_weights(algorithm: str | None, params: Mapping | None) -> bool:
    """Whether the algorithm registry says ``algorithm`` with ``params`` needs weights."""
    if algorithm is None:
        return False
    from repro.runtime.registry import get_algorithm

    return get_algorithm(algorithm).needs_weights(params)
