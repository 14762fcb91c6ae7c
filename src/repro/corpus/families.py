"""The corpus generator protocol: every input family behind one contract.

This is the pisek-style generator contract (ROADMAP item 5, SNIPPETS.md
Snippet 1) applied to :mod:`repro.graphs.generators`: every family

* **self-describes** — :meth:`CorpusFamily.describe` prints one
  ``name key=value ... seeded=true|false`` line whose pairs round-trip
  through :func:`parse_spec`, so ``repro corpus list`` output *is* the
  language ``repro corpus gen`` accepts;
* **is deterministic** — same ``(params, seed)`` produce byte-identical
  edge arrays, which is what lets the corpus manager content-address
  materialized instances and ``verify`` them against regeneration;
* **respects seeds, or declares it doesn't** — ``seeded=True`` families
  must produce distinct graphs for distinct seeds, while
  ``seeded=False`` families normalize every seed to 0 *before* the
  builder runs, so seed-stability holds by construction.

:data:`CORPUS_FAMILIES` is the only family registry: it wraps every
generator in the repository — the named deterministic builders
(``path`` .. ``grid``), the worst-case families (``lollipop`` ..
``star_of_paths``), the random families (``gnm`` .. ``random_tree``),
the planted constructions, and the Figure-1 lower-bound graph.  Each
family also accepts a ``weighted`` flag (unique weights seeded by the
family's normalized seed) so one corpus entry can feed MST and
connectivity alike.

Every family except ``lower_bound`` also has a *size rule*
(``n -> params``), and :func:`sized_graph` builds a named family at a
requested vertex count.  The benchmark suites call it directly; the CLI,
the service and the scenarios call it through
:func:`repro.corpus.inputs.resolve_input`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.graphs import generators
from repro.graphs.graph import Graph

__all__ = [
    "CORPUS_FAMILIES",
    "CorpusFamily",
    "CorpusParam",
    "format_value",
    "get_family",
    "parse_spec",
    "sizeable_families",
    "sized_graph",
]


@dataclass(frozen=True)
class CorpusParam:
    """One declared parameter of a corpus family.

    ``kind`` is one of ``"int"`` / ``"float"`` / ``"bool"``; values are
    coerced (and range-checked by the builder itself) when a spec is
    normalized.
    """

    name: str
    kind: str
    default: int | float | bool

    def coerce(self, value) -> int | float | bool:
        """Coerce ``value`` to this parameter's kind (raise ``ValueError``)."""
        try:
            if self.kind == "int":
                if isinstance(value, bool) or (
                    isinstance(value, float) and not float(value).is_integer()
                ):
                    raise ValueError(value)
                return int(value)
            if self.kind == "float":
                if isinstance(value, bool):
                    raise ValueError(value)
                return float(value)
            if self.kind == "bool":
                if isinstance(value, bool):
                    return value
                if isinstance(value, str) and value.lower() in ("true", "false"):
                    return value.lower() == "true"
                if isinstance(value, int) and value in (0, 1):
                    return bool(value)
                raise ValueError(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"parameter {self.name!r} expects {self.kind}, got {value!r}"
            ) from None
        raise ValueError(f"parameter {self.name!r} has unknown kind {self.kind!r}")


def format_value(value) -> str:
    """Render one param value the way :func:`parse_spec` reads it back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class CorpusFamily:
    """One input family under the corpus generator contract (module docstring).

    Attributes
    ----------
    name / summary:
        Registry name and one-line description for listings.
    seeded:
        Whether the builder consumes its seed.  :meth:`generate` *enforces*
        the contract: unseeded families have their seed normalized to 0
        before the builder runs, so seed-stability holds by construction.
    params:
        Declared parameter grid, in listing order.  Every family also
        carries the implicit ``weighted`` flag (appended automatically).
    builder:
        ``builder(seed=..., **core_params) -> Graph``; core params exclude
        ``weighted``, which the protocol layer applies afterwards.
    grid:
        The family's default generation grid — the small param cells
        ``repro corpus gen`` (and the CI corpus-smoke leg) materialize
        when no explicit spec is given.
    size_rule:
        ``n -> params`` at a requested vertex count, for
        :func:`sized_graph`.  Defaults to ``{"n": n}`` for a family that
        declares ``n``; ``None`` leaves the family unsizeable.
    """

    name: str
    summary: str
    seeded: bool
    params: tuple[CorpusParam, ...]
    builder: Callable[..., Graph]
    grid: tuple[dict, ...] = ()
    size_rule: Callable[[int], dict] | None = None

    def __post_init__(self) -> None:
        if not any(p.name == "weighted" for p in self.params):
            object.__setattr__(
                self,
                "params",
                self.params + (CorpusParam("weighted", "bool", False),),
            )
        if self.size_rule is None and any(p.name == "n" for p in self.params):
            object.__setattr__(self, "size_rule", _size_n)

    # -- the self-description line ----------------------------------------

    def describe(self, params: Mapping | None = None) -> str:
        """``name key=value ... seeded=true|false`` (pisek listing format)."""
        values = self.normalize(params or {})
        pairs = [f"{p.name}={format_value(values[p.name])}" for p in self.params]
        pairs.append(f"seeded={format_value(self.seeded)}")
        return " ".join([self.name, *pairs])

    # -- the contract ------------------------------------------------------

    def normalize(self, params: Mapping) -> dict:
        """Validated param dict: defaults filled, types coerced, unknowns rejected."""
        declared = {p.name: p for p in self.params}
        unknown = set(params) - set(declared)
        if unknown:
            raise ValueError(
                f"family {self.name!r} has no parameter(s) "
                f"{', '.join(sorted(unknown))}; declared: {', '.join(declared)}"
            )
        return {
            name: spec.coerce(params[name]) if name in params else spec.default
            for name, spec in declared.items()
        }

    def normalize_seed(self, seed: int = 0) -> int:
        """The seed the builder actually sees (0 for unseeded families)."""
        return int(seed) if self.seeded else 0

    def generate(self, params: Mapping | None = None, seed: int = 0) -> Graph:
        """Build the instance for ``(params, seed)`` under the contract.

        Deterministic; the seed is normalized per :meth:`normalize_seed`.
        ``weighted=True`` overlays unique edge weights seeded by the same
        normalized seed, so the weighted variant is deterministic too.
        """
        values = self.normalize(params or {})
        weighted = values.pop("weighted")
        s = self.normalize_seed(seed)
        g = self.builder(seed=s, **values)
        if weighted and not g.weighted:
            g = generators.with_unique_weights(g, seed=s)
        return g


# --------------------------------------------------------------------------
# Spec parsing (the inverse of the listing)
# --------------------------------------------------------------------------


def parse_spec(text: str) -> tuple["CorpusFamily", dict]:
    """Parse one ``name key=value ...`` line into (family, normalized params).

    The exact inverse of :meth:`CorpusFamily.describe`: values are JSON
    with a string fallback (so ``m=768``, ``radius=0.08`` and
    ``weighted=true`` all parse), a ``seeded=`` pair is checked against
    the family's declared flag rather than treated as a graph parameter,
    and the result is normalized — which is what makes ``repro corpus
    list`` output feed straight back into ``repro corpus gen``.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty corpus spec")
    family = get_family(parts[0])
    raw: dict = {}
    for item in parts[1:]:
        key, sep, value_text = item.partition("=")
        if not sep or not key:
            raise ValueError(f"corpus spec item {item!r} is not key=value")
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text
        if key == "seeded":
            declared = format_value(family.seeded)
            if format_value(value) != declared:
                raise ValueError(
                    f"family {family.name!r} declares seeded={declared}, "
                    f"spec says seeded={format_value(value)}"
                )
            continue
        if key in raw:
            raise ValueError(f"duplicate parameter {key!r} in corpus spec")
        raw[key] = value
    return family, family.normalize(raw)


# --------------------------------------------------------------------------
# Builders that adapt the generator signatures to the uniform contract
# --------------------------------------------------------------------------


def _no_seed(fn: Callable[..., Graph]) -> Callable[..., Graph]:
    """Adapt a seed-less deterministic builder to the uniform signature."""

    def _build(*, seed: int, **kwargs) -> Graph:
        del seed  # shape-deterministic; the registry entry says seeded=False
        return fn(**kwargs)

    return _build


def _build_grid(*, seed: int, rows: int, cols: int) -> Graph:
    del seed
    return generators.grid2d(rows, cols)


def _build_lower_bound(*, seed: int, bits: int) -> Graph:
    """The Figure-1 SCS graph G for ``bits`` disjointness coordinates.

    G itself carries *every* construction edge regardless of the X/Y bit
    vectors — only the subgraph mask depends on them — so this family is
    a pure function of ``bits`` and registers ``seeded=False``.
    """
    del seed
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    zeros = np.zeros(bits, dtype=np.int64)
    g, _ = generators.lower_bound_graph(zeros, zeros)
    return g


def _size_n(n: int) -> dict:
    return {"n": n}


def _size_gnm(n: int) -> dict:
    return {"n": n, "m": 3 * n}


def _size_grid(n: int) -> dict:
    side = max(2, int(round(n**0.5)))
    return {"rows": side, "cols": side}


# The worst-case families scale their shape from one requested n and may
# round to their natural granularity (whole cliques, whole arms).


def _build_lollipop(*, seed: int, n: int) -> Graph:
    del seed
    clique = max(2, n // 2)
    return generators.lollipop(clique, max(1, n - clique))


def _build_barbell(*, seed: int, n: int) -> Graph:
    del seed
    clique = max(2, n // 3)
    return generators.barbell(clique, max(1, n - 2 * clique + 1))


def _build_expander_bridge(*, seed: int, n: int) -> Graph:
    return generators.expander_bridge(max(8, n), seed=seed)


def _build_disjoint_cliques(*, seed: int, n: int) -> Graph:
    del seed
    size = max(2, int(np.sqrt(n)))
    return generators.disjoint_cliques(max(1, n // size), size)


def _build_star_of_paths(*, seed: int, n: int) -> Graph:
    del seed
    arms = max(1, int(np.sqrt(n)))
    return generators.star_of_paths(arms, max(1, (n - 1) // arms))


def _int_param(name: str, default: int) -> CorpusParam:
    return CorpusParam(name, "int", default)


def _n_grid(*sizes: int) -> tuple[dict, ...]:
    return tuple({"n": n} for n in sizes)


#: Family name -> :class:`CorpusFamily` — every generator in the repository.
CORPUS_FAMILIES: dict[str, CorpusFamily] = {
    f.name: f
    for f in (
        # Deterministic named builders (pure functions of their shape params).
        CorpusFamily(
            "path", "path 0-1-...-(n-1); diameter n-1 (flooding stress)",
            seeded=False, params=(_int_param("n", 256),),
            builder=_no_seed(generators.path_graph), grid=_n_grid(192),
        ),
        CorpusFamily(
            "cycle", "cycle on n vertices", seeded=False,
            params=(_int_param("n", 256),),
            builder=_no_seed(generators.cycle_graph), grid=_n_grid(192),
        ),
        CorpusFamily(
            "star", "star with center 0 (the Theorem 2b adversary)",
            seeded=False, params=(_int_param("n", 256),),
            builder=_no_seed(generators.star_graph), grid=_n_grid(192),
        ),
        CorpusFamily(
            "complete", "complete graph K_n", seeded=False,
            params=(_int_param("n", 64),),
            builder=_no_seed(generators.complete_graph), grid=_n_grid(48),
        ),
        CorpusFamily(
            "tree", "complete-ish binary tree (heap indexing)", seeded=False,
            params=(_int_param("n", 255),),
            builder=_no_seed(generators.binary_tree), grid=_n_grid(191),
        ),
        CorpusFamily(
            "grid", "rows x cols grid; diameter rows+cols-2", seeded=False,
            params=(_int_param("rows", 16), _int_param("cols", 16)),
            builder=_build_grid, grid=({"rows": 14, "cols": 14},),
            size_rule=_size_grid,
        ),
        # Worst-case families: the scenario engine's input axis.
        CorpusFamily(
            "lollipop", "clique with a path tail: dense core, Theta(n) diameter",
            seeded=False, params=(_int_param("n", 256),),
            builder=_build_lollipop, grid=_n_grid(192),
        ),
        CorpusFamily(
            "barbell", "two cliques joined by a path: one forced slow merge",
            seeded=False, params=(_int_param("n", 256),),
            builder=_build_barbell, grid=_n_grid(192),
        ),
        CorpusFamily(
            "expander_bridge",
            "two seeded expanders joined by a single bridge edge",
            seeded=True, params=(_int_param("n", 256),),
            builder=_build_expander_bridge, grid=_n_grid(192),
        ),
        CorpusFamily(
            "disjoint_cliques",
            "~sqrt(n) cliques of ~sqrt(n): many components, no merging",
            seeded=False, params=(_int_param("n", 256),),
            builder=_build_disjoint_cliques, grid=_n_grid(192),
        ),
        CorpusFamily(
            "star_of_paths",
            "~sqrt(n) paths glued at a hub: high diameter, hot center",
            seeded=False, params=(_int_param("n", 256),),
            builder=_build_star_of_paths, grid=_n_grid(192),
        ),
        # Random families — previously outside any registry, so their
        # seed-respecting behavior was an untested accident (ISSUE 9).
        CorpusFamily(
            "gnm", "Erdos-Renyi G(n, m): m distinct uniform edges",
            seeded=True, params=(_int_param("n", 256), _int_param("m", 768)),
            builder=generators.gnm_random,
            grid=({"n": 192, "m": 576}, {"n": 192, "m": 576, "weighted": True}),
            size_rule=_size_gnm,
        ),
        CorpusFamily(
            "gnp", "Erdos-Renyi G(n, p) via binomial edge count",
            seeded=True,
            params=(_int_param("n", 256), CorpusParam("p", "float", 0.02)),
            builder=generators.gnp_random, grid=({"n": 192, "p": 0.03},),
        ),
        CorpusFamily(
            "geometric", "random geometric graph in the unit square",
            seeded=True,
            params=(_int_param("n", 256), CorpusParam("radius", "float", 0.08)),
            builder=generators.random_geometric,
            grid=({"n": 192, "radius": 0.1},),
        ),
        CorpusFamily(
            "powerlaw", "preferential attachment (skewed degrees)",
            seeded=True,
            params=(_int_param("n", 256), _int_param("attach", 2)),
            builder=generators.powerlaw_preferential, grid=_n_grid(192),
        ),
        CorpusFamily(
            "random_tree", "uniform-ish random spanning tree", seeded=True,
            params=(_int_param("n", 256),),
            builder=generators.random_spanning_tree, grid=_n_grid(192),
        ),
        # Planted constructions (known ground truth).
        CorpusFamily(
            "planted_components",
            "exactly n_components connected components (known truth)",
            seeded=True,
            params=(
                _int_param("n", 256),
                _int_param("n_components", 4),
                _int_param("extra_edges_per_component", 2),
            ),
            builder=generators.planted_components,
            grid=({"n": 192, "n_components": 4},),
        ),
        CorpusFamily(
            "planted_cut",
            "two dense blobs joined by exactly cut_size edges (Theorem 3)",
            seeded=True,
            params=(
                _int_param("n", 256),
                _int_param("cut_size", 3),
                _int_param("inner_degree", 8),
            ),
            builder=generators.planted_cut_graph,
            grid=({"n": 128, "cut_size": 3},),
        ),
        CorpusFamily(
            "diameter2", "connected diameter-2 instance (Theorem 5 regime)",
            seeded=True, params=(_int_param("n", 128),),
            builder=generators.diameter2_graph, grid=_n_grid(96),
        ),
        CorpusFamily(
            "lower_bound",
            "Figure-1 SCS construction: G on 2*bits+2 vertices (Theorem 5)",
            seeded=False, params=(_int_param("bits", 32),),
            builder=_build_lower_bound, grid=({"bits": 24},),
        ),
    )
}


def get_family(name: str) -> CorpusFamily:
    """Look up a corpus family; raise ``KeyError`` naming the options."""
    try:
        return CORPUS_FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown corpus family {name!r}; "
            f"available: {', '.join(sorted(CORPUS_FAMILIES))}"
        ) from None


def sizeable_families() -> list[str]:
    """Sorted names of the families :func:`sized_graph` can build."""
    return sorted(name for name, fam in CORPUS_FAMILIES.items() if fam.size_rule)


def sized_graph(
    family: str,
    n: int,
    seed: int = 0,
    *,
    weighted: bool = False,
    params: Mapping | None = None,
) -> Graph:
    """Build ``family`` at (approximate) vertex count ``n`` and graph seed ``seed``.

    The family's size rule gives its params, ``params`` overrides them,
    and :meth:`CorpusFamily.generate` builds the instance.  ``weighted``
    overlays unique weights seeded by the raw ``seed``, so even a
    shape-deterministic family gets per-seed weights; the ``weighted``
    *param* of a corpus entry stays at the normalized seed instead,
    because the entry's digest is its content address.
    """
    fam = get_family(family)
    if fam.size_rule is None:
        raise ValueError(
            f"family {family!r} has no size rule; "
            f"sizeable families: {', '.join(sizeable_families())}"
        )
    g = fam.generate({**fam.size_rule(int(n)), **(params or {})}, seed)
    if weighted and not g.weighted:
        g = generators.with_unique_weights(g, seed=seed)
    return g
