"""Input partitioning: random vertex partition (RVP) and random edge partition (REP).

Section 1.1: in the RVP model each vertex (with its incident edges) is
assigned independently and uniformly at random to one of the k machines —
the partition used by Pregel-style systems via vertex hashing.  A key
consequence the algorithms exploit: *every machine can compute any vertex's
home machine locally* (the partition is a shared hash function), which is
how proxies address the home machines of sampled edge endpoints.

Section 1.3 discusses the REP model (edges assigned randomly to machines)
where the tight bound is Theta~(n/k) instead; :func:`random_edge_partition`
supports the comparison experiments in :mod:`repro.baselines.rep`.

Skewed partitions (adversarial scenarios)
-----------------------------------------
The paper's bounds assume the *uniform* RVP; the scenario engine stresses
that assumption with three skewed placements behind the typed
:class:`PartitionConfig` (see DESIGN.md §7):

* ``powerlaw`` — machine j receives vertices with probability
  proportional to ``(j + 1) ** -alpha`` (hot-machine skew);
* ``locality`` — contiguous vertex ranges map to machines (the worst case
  for hash-partitioned systems ingesting crawl-ordered ids), with a
  seeded ``noise`` fraction re-hashed uniformly;
* ``adversarial_heavy`` — the top ``heavy_fraction`` of vertices by
  degree all land on machine 0 (the "all heavy vertices on one machine"
  adversary), the rest uniform.

Every scheme remains a deterministic function of ``(seed, n, k, scheme
parameters)`` — and, for ``adversarial_heavy``, the globally known degree
sequence — so any machine can still compute any vertex's home locally,
preserving the model's shared-hash addressing requirement.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

import numpy as np

from repro.util.rng import SeedStream, derive_seed
from repro.util.validation import ConfigError, decode

__all__ = [
    "PARTITION_SCHEMES",
    "PartitionConfig",
    "VertexPartition",
    "adversarial_heavy_partition",
    "build_partition",
    "locality_vertex_partition",
    "powerlaw_vertex_partition",
    "random_edge_partition",
    "random_vertex_partition",
]

#: Accepted placement schemes (see module docstring).
PARTITION_SCHEMES = ("uniform", "powerlaw", "locality", "adversarial_heavy")


@dataclass(frozen=True)
class PartitionConfig:
    """Typed description of how vertices are placed on machines.

    Attributes
    ----------
    scheme:
        One of :data:`PARTITION_SCHEMES`; ``uniform`` is the paper's RVP.
    alpha:
        Skew exponent of the ``powerlaw`` scheme (larger = more skew).
    noise:
        Fraction of vertices re-hashed uniformly under ``locality``
        (0 = perfectly contiguous blocks).
    heavy_fraction:
        Fraction of highest-degree vertices pinned to machine 0 under
        ``adversarial_heavy``.
    """

    scheme: str = "uniform"
    alpha: float = 1.5
    noise: float = 0.05
    heavy_fraction: float = 0.05

    def validate(self) -> "PartitionConfig":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        if self.scheme not in PARTITION_SCHEMES:
            raise ConfigError(
                f"scheme must be one of {PARTITION_SCHEMES}, got {self.scheme!r}"
            )
        if not isinstance(self.alpha, (int, float)) or self.alpha < 0:
            raise ConfigError(f"alpha must be a non-negative number, got {self.alpha!r}")
        if not isinstance(self.noise, (int, float)) or not (0.0 <= self.noise <= 1.0):
            raise ConfigError(f"noise must be in [0, 1], got {self.noise!r}")
        if not isinstance(self.heavy_fraction, (int, float)) or not (
            0.0 < self.heavy_fraction <= 1.0
        ):
            raise ConfigError(
                f"heavy_fraction must be in (0, 1], got {self.heavy_fraction!r}"
            )
        return self

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartitionConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        return decode(cls, data).validate()


@dataclass(frozen=True)
class VertexPartition:
    """A vertex -> machine assignment, shared-hash computable.

    Attributes
    ----------
    k:
        Number of machines.
    home:
        ``int64[n]``; ``home[v]`` is the home machine of vertex ``v``.
    seed:
        The hash seed; any machine can recompute ``home[v]`` from
        ``(seed, v)`` alone (the paper's "if a machine knows a vertex ID,
        it also knows where it is hashed to").
    """

    k: int
    home: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        """Number of vertices."""
        return int(self.home.size)

    def machine_vertices(self, machine: int) -> np.ndarray:
        """Vertices homed at ``machine`` (ascending)."""
        return np.nonzero(self.home == machine)[0].astype(np.int64)

    def counts(self) -> np.ndarray:
        """Vertices per machine (``int64[k]``)."""
        return np.bincount(self.home, minlength=self.k).astype(np.int64)

    def home_of(self, vertices: np.ndarray | int) -> np.ndarray:
        """Vectorized home lookup (recomputable by any machine)."""
        return self.home[np.asarray(vertices, dtype=np.int64)]


def random_vertex_partition(n: int, k: int, seed: int) -> VertexPartition:
    """RVP via shared hashing: vertex v -> h(v) in [k].

    Hash-based (rather than a random permutation) exactly as real systems
    do it, and as the model requires for locally-computable homes.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    stream = SeedStream(derive_seed(seed, 0x9A27, k))
    home = stream.keyed_choice(np.arange(n, dtype=np.uint64), k)
    return VertexPartition(k=k, home=home.astype(np.int64), seed=seed)


def random_edge_partition(m: int, k: int, seed: int) -> np.ndarray:
    """REP: edge index -> machine, independently and uniformly (``int64[m]``)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    stream = SeedStream(derive_seed(seed, 0xE49, k))
    return stream.keyed_choice(np.arange(m, dtype=np.uint64), k).astype(np.int64)


# --------------------------------------------------------------------------
# Skewed placements (adversarial scenarios; see module docstring)
# --------------------------------------------------------------------------


def _check_nk(n: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def powerlaw_vertex_partition(n: int, k: int, seed: int, alpha: float = 1.5) -> VertexPartition:
    """Skewed hashing: machine j drawn with probability ~ ``(j+1)**-alpha``.

    ``alpha = 0`` degenerates to the uniform RVP; large alpha concentrates
    most vertices on machine 0.  Placement is a keyed inverse-CDF lookup,
    so homes stay locally computable from ``(seed, v)``.
    """
    _check_nk(n, k)
    weights = (np.arange(1, k + 1, dtype=np.float64)) ** (-float(alpha))
    cdf = np.cumsum(weights / weights.sum())
    stream = SeedStream(derive_seed(seed, 0x9A28, k))
    u = stream.keyed_uniform(np.arange(n, dtype=np.uint64))
    home = np.searchsorted(cdf, u, side="right").clip(0, k - 1).astype(np.int64)
    return VertexPartition(k=k, home=home, seed=seed)


def locality_vertex_partition(n: int, k: int, seed: int, noise: float = 0.05) -> VertexPartition:
    """Contiguous vertex ranges per machine, with a uniform ``noise`` fraction.

    Models ingestion order correlating with graph locality (crawl ids,
    geographic ids): vertex v's block is ``v * k // n``; a seeded fraction
    is re-hashed uniformly, mimicking imperfect correlation.
    """
    _check_nk(n, k)
    if not (0.0 <= noise <= 1.0):
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    v = np.arange(n, dtype=np.int64)
    home = (v * k) // n
    if noise > 0.0:
        stream = SeedStream(derive_seed(seed, 0x9A29, k))
        rehash = stream.keyed_uniform(v.astype(np.uint64)) < noise
        home = home.copy()
        home[rehash] = stream.keyed_choice(v[rehash].astype(np.uint64) + np.uint64(n), k)
    return VertexPartition(k=k, home=home.astype(np.int64), seed=seed)


def adversarial_heavy_partition(
    degrees: np.ndarray, k: int, seed: int, heavy_fraction: float = 0.05
) -> VertexPartition:
    """All heavy vertices on one machine: the congestion adversary.

    The top ``ceil(heavy_fraction * n)`` vertices by degree (ties broken
    by vertex id, so the placement is deterministic) are pinned to
    machine 0; the rest hash uniformly over all k machines.  This attacks
    the proxy/congestion analysis, which relies on heavy vertices being
    spread out by the uniform RVP.
    """
    deg = np.asarray(degrees, dtype=np.int64)
    n = int(deg.size)
    _check_nk(n, k)
    if not (0.0 < heavy_fraction <= 1.0):
        raise ValueError(f"heavy_fraction must be in (0, 1], got {heavy_fraction}")
    n_heavy = min(n, int(np.ceil(heavy_fraction * n)))
    # Sort by (degree desc, id asc): lexsort keys are last-key-primary.
    order = np.lexsort((np.arange(n, dtype=np.int64), -deg))
    heavy = order[:n_heavy]
    stream = SeedStream(derive_seed(seed, 0x9A2A, k))
    home = stream.keyed_choice(np.arange(n, dtype=np.uint64), k).astype(np.int64)
    home[heavy] = 0
    return VertexPartition(k=k, home=home, seed=seed)


def build_partition(
    graph,
    k: int,
    seed: int,
    config: PartitionConfig | None = None,
    *,
    epoch: int = 0,
) -> VertexPartition:
    """Build the vertex partition selected by ``config`` for ``graph``.

    The one entry point the runtime layer uses: ``uniform`` (default)
    routes to :func:`random_vertex_partition`; the skewed schemes consume
    their :class:`PartitionConfig` knobs, and ``adversarial_heavy``
    additionally reads the graph's degree sequence.

    ``epoch`` selects the *partition epoch* of the dynamic adversary
    (DESIGN.md §8): epoch 0 (the default) is byte-identical to the
    historical behaviour, while epoch e > 0 derives an independent
    shared-hash seed from ``(seed, e)`` — so a mid-run re-shuffle stays a
    deterministic function every machine can evaluate locally, exactly
    like the epoch-0 hash.
    """
    cfg = (config if config is not None else PartitionConfig()).validate()
    if not isinstance(epoch, int) or epoch < 0:
        raise ValueError(f"epoch must be a non-negative int, got {epoch!r}")
    if epoch > 0:
        seed = derive_seed(seed, 0xE70C, epoch)
    n = int(graph.n)
    if cfg.scheme == "uniform":
        return random_vertex_partition(n, k, seed)
    if cfg.scheme == "powerlaw":
        return powerlaw_vertex_partition(n, k, seed, alpha=cfg.alpha)
    if cfg.scheme == "locality":
        return locality_vertex_partition(n, k, seed, noise=cfg.noise)
    if cfg.scheme == "adversarial_heavy":
        return adversarial_heavy_partition(
            graph.degree(), k, seed, heavy_fraction=cfg.heavy_fraction
        )
    raise ValueError(f"unknown partition scheme {cfg.scheme!r}")  # pragma: no cover
