"""The :class:`Session` runner: cluster lifecycle, single runs, and sweeps.

A session owns the repetitive plumbing every benchmark and example used to
hand-roll: building a :class:`~repro.cluster.cluster.KMachineCluster` for a
(graph, k, seed) triple, resetting ledgers between runs, dispatching to a
registered algorithm, and collecting :class:`~repro.runtime.report.RunReport`
envelopes.  Clusters are cached per (graph, k, partition seed, bandwidth),
so sweeping seeds or algorithms over one input does not re-partition the
graph each run.

A session runs the :class:`~repro.graphs.graph.Graph` it is given.  Inputs
are named by :func:`repro.corpus.inputs.resolve_input` (family, scenario or
corpus entry) and scenarios reach a run as ``config=scenario.apply(config)``,
the same composition the CLI and the service use.

Single run::

    session = Session(graph, config=RunConfig(seed=7, cluster=ClusterConfig(k=8)))
    report = session.run("connectivity")

Parameter sweep (grid over seeds x k x n, optionally multi-core)::

    reports = session.sweep("connectivity", ks=(2, 4, 8), seeds=range(3))
    reports = session.sweep("mst", ns=(512, 1024), processes=4,
                            graph_factory=lambda n: resolve_input(n=n, algorithm="mst"))

``processes > 1`` distributes grid points over a
:class:`concurrent.futures.ProcessPoolExecutor`; each worker builds its
cluster from the pickled graph, memoizing it per process so same-key grid
points (a seed sweep at fixed k, say) skip the re-partition.  Results are
identical to the sequential path (order and content) — only wall time
differs.  The pool is owned by
the session and reused across sweeps of the same width; ``close()`` (or
the context-manager form) shuts it down, so long-lived holders — the
always-on service in :mod:`repro.service`, test fixtures — never leak
worker processes.

Thread-safety: the cluster cache itself is lock-protected, so concurrent
``cluster_for`` calls from several threads never corrupt it and a build
race on one key resolves to a single cached cluster.  *Running* two
algorithms concurrently on one cached cluster is still undefined (each
run resets and mutates the cluster's ledger) — callers that share keys
across threads must serialize runs per key, which is exactly what the
service's key-affinity worker pool does.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Iterable

from repro.cluster.cluster import KMachineCluster
from repro.cluster.partition import build_partition
from repro.graphs.graph import Graph
from repro.runtime.config import ClusterConfig, RunConfig, resolve_seed
from repro.runtime.registry import get_algorithm
from repro.runtime.report import RunReport

__all__ = ["Session"]


def _topology(graph: Graph, cc: ClusterConfig):
    """The explicit topology for a pinned absolute bandwidth, else None."""
    if cc.bandwidth_bits is None:
        return None
    from repro.cluster.topology import ClusterTopology

    return ClusterTopology(k=cc.k, bandwidth_bits=cc.bandwidth_bits)


def _partition_seed(cc: ClusterConfig, seed: int) -> int:
    """The pinned ``cc.partition_seed``, else the run seed."""
    return cc.partition_seed if cc.partition_seed is not None else seed


def _build_cluster(graph: Graph, cc: ClusterConfig, seed: int, epoch: int = 0) -> KMachineCluster:
    """Create the cluster a run needs at partition epoch ``epoch``."""
    partition_seed = _partition_seed(cc, seed)
    return KMachineCluster.create(
        graph,
        cc.k,
        partition_seed,
        bandwidth_multiplier=cc.bandwidth_multiplier,
        partition=build_partition(graph, cc.k, partition_seed, cc.partition, epoch=epoch),
        topology=_topology(graph, cc),
    )


#: Per-process cluster memo for :func:`_sweep_worker` (LRU, small cap).
#: Each payload arrives with its own unpickled graph copy, so the memo
#: keys on graph *content*, not identity; same-key grid points (e.g. a
#: seed sweep at fixed k) then reuse the worker-local cluster instead of
#: re-partitioning per point — mirroring :meth:`Session.cluster_for` in
#: the sequential path, whose reuse-equals-rebuild contract the
#: determinism tests pin.
_WORKER_CLUSTERS: "OrderedDict[tuple, KMachineCluster]" = OrderedDict()
_WORKER_CLUSTER_CAP = 4


def _graph_fingerprint(graph: Graph) -> bytes:
    """Content digest of a graph (structure + weights), for memo keys."""
    import hashlib

    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    h.update(f"{graph.n}:{graph.m}:{graph.weighted}".encode("ascii"))
    h.update(np.ascontiguousarray(graph.edges_u).tobytes())
    h.update(np.ascontiguousarray(graph.edges_v).tobytes())
    if graph.weighted:
        h.update(np.ascontiguousarray(graph.weights).tobytes())
    return h.digest()


def _worker_cluster(graph: Graph, config: RunConfig, seed: int) -> KMachineCluster:
    """The memoized cluster for one grid point (build on first use).

    The key is exactly the cluster-shaping state — graph content plus the
    :class:`ClusterConfig` fields and the resolved partition seed — so a
    hit is guaranteed to be the cluster a fresh build would produce
    (cluster construction is deterministic in those inputs).  Reuse
    resets the ledger first, as the session cache does.
    """
    cc = config.cluster
    key = (
        _graph_fingerprint(graph),
        cc.k,
        _partition_seed(cc, seed),
        cc.bandwidth_multiplier,
        cc.bandwidth_bits,
        cc.partition,
    )
    cluster = _WORKER_CLUSTERS.get(key)
    if cluster is not None:
        _WORKER_CLUSTERS.move_to_end(key)
        cluster.reset_ledger()
        return cluster
    cluster = _build_cluster(graph, cc, seed)
    _WORKER_CLUSTERS[key] = cluster
    while len(_WORKER_CLUSTERS) > _WORKER_CLUSTER_CAP:
        _WORKER_CLUSTERS.popitem(last=False)
    return cluster


def _sweep_worker(payload: tuple[Graph, str, dict, int]) -> RunReport:
    """Process-pool entry point: run one grid point in this worker process."""
    graph, algorithm, config_dict, seed = payload
    config = RunConfig.from_dict(config_dict)
    return get_algorithm(algorithm).run(_worker_cluster(graph, config, seed), config, seed=seed)


class Session:
    """Runs registered algorithms over one or more graphs (see module docstring).

    Parameters
    ----------
    graph:
        Default input graph; individual calls may override it.
    config:
        Default :class:`RunConfig`; individual calls may override it.  The
        session never mutates it.
    max_clusters:
        Maximum cached clusters (LRU eviction beyond this, at least one),
        so long-lived sessions over many graphs stay bounded.

    Each run executes serially in the calling thread; the only parallelism
    is ``sweep(processes=N)``, which spreads grid points over processes.
    """

    def __init__(
        self,
        graph: Graph | None = None,
        *,
        config: RunConfig | None = None,
        max_clusters: int = 32,
    ) -> None:
        self.graph = graph
        self.config = (config if config is not None else RunConfig()).validate()
        self.max_clusters = max(1, int(max_clusters))
        # key -> (graph ref, cluster); the graph ref keeps id(graph) stable.
        # Ordered most-recently-used last; all access goes through _lock.
        self._clusters: OrderedDict[tuple, tuple[Graph, KMachineCluster]] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._pool = None
        self._pool_width = 0

    # -- cluster lifecycle -------------------------------------------------

    def cluster_for(
        self,
        graph: Graph,
        cluster_config: ClusterConfig,
        seed: int,
        *,
        epoch: int = 0,
    ) -> KMachineCluster:
        """The cached cluster for (graph, k, partition seed, bandwidth, epoch).

        The returned cluster's ledger is reset, so each run reports only its
        own cost while reusing the partition and incidence arrays.  ``epoch``
        selects the partition epoch (DESIGN.md §8): epoch 0 is the historical
        placement, epoch e > 0 an independently re-hashed one — each epoch is
        its own cache entry, which is how the service models cache refreshes.

        Thread-safe: concurrent calls never corrupt the cache, and a build
        race on one key keeps exactly one cluster (first insert wins).  The
        losing builder still counts a miss — it did pay for a build — so
        hit/miss counts are only deterministic when same-key calls are
        serialized, as in the service's key-affinity workers.
        """
        key = (
            id(graph),
            cluster_config.k,
            _partition_seed(cluster_config, seed),
            cluster_config.bandwidth_multiplier,
            cluster_config.bandwidth_bits,
            cluster_config.partition,
            int(epoch),
        )
        with self._lock:
            hit = self._clusters.get(key)
            if hit is not None and hit[0] is graph:
                self._hits += 1
                self._clusters.move_to_end(key)
                cluster = hit[1]
                cluster.reset_ledger()
                return cluster
        # Build outside the lock so distinct keys can build concurrently.
        cluster = _build_cluster(graph, cluster_config, seed, epoch)
        with self._lock:
            self._misses += 1
            current = self._clusters.get(key)
            if current is not None and current[0] is graph:
                # Another thread finished the same build first; use its copy.
                self._clusters.move_to_end(key)
                cluster = current[1]
                cluster.reset_ledger()
                return cluster
            self._clusters[key] = (graph, cluster)
            while len(self._clusters) > self.max_clusters:
                self._clusters.popitem(last=False)
                self._evictions += 1
        return cluster

    def cache_info(self) -> dict:
        """Cluster-cache counters: hits / misses / evictions / size / bound."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._clusters),
                "max_clusters": self.max_clusters,
            }

    def clear_cache(self) -> None:
        """Drop all cached clusters (e.g. after discarding their graphs)."""
        with self._lock:
            self._clusters.clear()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release held resources: the cluster cache and any process pool.

        Idempotent, and the session stays usable afterwards (caches and
        pools are re-created on demand) — ``close()`` is a release point,
        not a tombstone, so a service can recycle a worker's session
        without tearing down the worker itself.
        """
        self.clear_cache()
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_width = 0
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _pool_for(self, processes: int):
        """The session-owned process pool at ``processes`` workers.

        Reused across sweeps of the same width; a different width replaces
        it (graceful shutdown of the old pool first).
        """
        import concurrent.futures

        with self._lock:
            if self._pool is not None and self._pool_width != processes:
                old, self._pool = self._pool, None
                old.shutdown(wait=True, cancel_futures=True)
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=processes)
                self._pool_width = processes
            return self._pool

    # -- running -----------------------------------------------------------

    def _resolve(self, graph: Graph | None, config: RunConfig | None) -> tuple[Graph, RunConfig]:
        g = graph if graph is not None else self.graph
        if g is None:
            raise ValueError("no graph: pass one to the call or to Session(...)")
        if not isinstance(g, Graph):
            raise TypeError(
                f"graph must be a Graph, got {type(g).__name__}; name an input with "
                "repro.corpus.inputs.resolve_input(family=, scenario=, corpus=, ...)"
            )
        cfg = (config if config is not None else self.config).validate()
        return g, cfg

    def run(
        self,
        algorithm: str,
        graph: Graph | None = None,
        *,
        config: RunConfig | None = None,
        seed: int | None = None,
        epoch: int = 0,
    ) -> RunReport:
        """Run one registered algorithm and return its :class:`RunReport`.

        Seed precedence: ``seed`` here > ``config.seed`` > the default —
        the resolved value seeds both the partition (unless
        ``ClusterConfig.partition_seed`` pins it) and the algorithm.
        ``epoch`` pins the partition epoch of the cluster (see
        :meth:`cluster_for`).  An algorithm that does not read the churn
        section ignores the vertex partition (REP scatters edges), so it
        rejects a nonzero epoch, which would be a silent no-op.
        """
        g, cfg = self._resolve(graph, config)
        resolved = resolve_seed(seed, cfg.seed)
        spec = get_algorithm(algorithm)
        if epoch != 0 and "churn" not in spec.sections:
            raise ValueError(
                f"algorithm {algorithm!r} ignores the vertex partition; epoch= does not apply"
            )
        cluster = self.cluster_for(g, cfg.cluster, resolved, epoch=epoch)
        return spec.run(cluster, cfg, seed=resolved)

    def sweep(
        self,
        algorithm: str,
        *,
        seeds: Iterable[int] | None = None,
        ks: Iterable[int] | None = None,
        ns: Iterable[int] | None = None,
        graph: Graph | None = None,
        graph_factory: Callable[[int], Graph] | None = None,
        config: RunConfig | None = None,
        processes: int | None = None,
    ) -> list[RunReport]:
        """Run ``algorithm`` over the grid ``ns x ks x seeds``; return all reports.

        Parameters
        ----------
        seeds / ks:
            Values to sweep; each defaults to the single configured value.
        ns:
            Graph sizes; requires ``graph_factory(n) -> Graph``.  Omitted:
            the fixed ``graph`` (or the session default) is used.
        processes:
            ``None`` or ``1`` runs sequentially in-process; ``> 1`` fans the
            grid out over a process pool.  Report order always matches the
            grid order (n-major, then k, then seed).

        Every grid point gets a fresh ledger; with a fixed graph the cluster
        cache is reused across seeds sharing a (k, partition seed).
        """
        if ns is not None and graph_factory is None:
            raise ValueError("sweeping ns requires graph_factory(n) -> Graph")
        base_cfg = (config if config is not None else self.config).validate()
        seed_list = [resolve_seed(None, base_cfg.seed)] if seeds is None else [int(s) for s in seeds]
        k_list = [base_cfg.cluster.k] if ks is None else [int(k) for k in ks]

        if ns is None:
            g, _ = self._resolve(graph, base_cfg)
            graphs: list[tuple[int | None, Graph]] = [(None, g)]
        else:
            graphs = [(int(n), graph_factory(int(n))) for n in ns]

        jobs: list[tuple[Graph, RunConfig, int]] = []
        for _, g in graphs:
            for k in k_list:
                cfg = base_cfg.with_overrides(cluster=replace(base_cfg.cluster, k=k))
                for s in seed_list:
                    jobs.append((g, cfg, s))

        if processes is not None and processes > 1:
            payloads = [(g, algorithm, cfg.to_dict(), s) for g, cfg, s in jobs]
            pool = self._pool_for(processes)
            try:
                return list(pool.map(_sweep_worker, payloads))
            except (KeyboardInterrupt, SystemExit):
                # Don't leave orphaned workers grinding through the rest of
                # the grid after a Ctrl-C: cancel what hasn't started and
                # tear the pool down before propagating.
                with self._lock:
                    self._pool = None
                    self._pool_width = 0
                pool.shutdown(wait=False, cancel_futures=True)
                raise

        # Factory-built graphs are throwaways: run them cache-less so the
        # session does not pin one cluster per grid point forever.
        use_cache = ns is None
        spec = get_algorithm(algorithm)
        reports = []
        for g, cfg, s in jobs:
            if use_cache:
                cluster = self.cluster_for(g, cfg.cluster, s)
            else:
                cluster = _build_cluster(g, cfg.cluster, s)
            reports.append(spec.run(cluster, cfg, seed=s))
        return reports
