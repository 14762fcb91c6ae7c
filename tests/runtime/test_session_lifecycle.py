"""Session lifecycle: bounded LRU cache, counters, close(), thread-safety.

The service layer (repro.service) leans on exactly these contracts: a
bounded cluster cache with deterministic hit/miss accounting when same-key
calls are serialized, a close() that releases the process pool without
tombstoning the session, and a cache that survives concurrent hammering.
"""

from __future__ import annotations

import threading

import pytest

from repro.graphs import generators
from repro.runtime import ClusterConfig, RunConfig
from repro.runtime.session import Session


def _graph(seed: int = 5, n: int = 60):
    return generators.gnm_random(n, 3 * n, seed=seed)


def test_cache_counts_hits_and_misses():
    session = Session(_graph())
    cc = ClusterConfig(k=4)
    session.cluster_for(session.graph, cc, 0)
    session.cluster_for(session.graph, cc, 0)
    session.cluster_for(session.graph, cc, 1)
    info = session.cache_info()
    assert info["hits"] == 1
    assert info["misses"] == 2
    assert info["evictions"] == 0
    assert info["size"] == 2
    assert info["max_clusters"] == session.max_clusters == 32


def test_lru_evicts_least_recently_used():
    session = Session(_graph(), max_clusters=2)
    cc = ClusterConfig(k=4)
    session.cluster_for(session.graph, cc, 0)  # key A
    session.cluster_for(session.graph, cc, 1)  # key B
    session.cluster_for(session.graph, cc, 0)  # touch A -> B is now LRU
    session.cluster_for(session.graph, cc, 2)  # key C evicts B
    assert session.cache_info()["evictions"] == 1
    assert session.cache_info()["size"] == 2
    before = session.cache_info()["hits"]
    session.cluster_for(session.graph, cc, 0)  # A survived
    assert session.cache_info()["hits"] == before + 1
    session.cluster_for(session.graph, cc, 1)  # B was evicted: a rebuild
    assert session.cache_info()["hits"] == before + 1
    assert session.cache_info()["evictions"] == 2


def test_max_clusters_aliases_cache_size():
    assert Session(max_clusters=7).max_clusters == 7
    # Degenerate bounds clamp to one cached cluster, never zero.
    assert Session(max_clusters=0).max_clusters == 1


def test_epoch_is_a_cache_axis():
    session = Session(_graph())
    cc = ClusterConfig(k=4)
    c0 = session.cluster_for(session.graph, cc, 0, epoch=0)
    c1 = session.cluster_for(session.graph, cc, 0, epoch=1)
    assert c0 is not c1
    assert session.cache_info()["misses"] == 2
    assert session.cluster_for(session.graph, cc, 0, epoch=1) is c1
    assert session.cache_info()["hits"] == 1


def test_run_epoch_changes_placement_not_answer():
    g = _graph(n=80)
    session = Session(g, config=RunConfig(seed=3, cluster=ClusterConfig(k=4)))
    r0 = session.run("connectivity")
    r1 = session.run("connectivity", epoch=2)
    assert r0.result == r1.result
    assert session.cache_info()["misses"] == 2  # distinct epochs, distinct builds


def test_rep_rejects_epoch_before_building_a_cluster():
    session = Session(_graph())
    with pytest.raises(ValueError, match="epoch"):
        session.run("rep", epoch=1)
    assert session.cache_info()["misses"] == 0


def test_close_is_idempotent_and_not_a_tombstone():
    session = Session(_graph())
    session.run("connectivity")
    assert session.cache_info()["size"] == 1
    session.close()
    session.close()
    assert session.cache_info()["size"] == 0
    # Still usable: caches rebuild on demand.
    report = session.run("connectivity")
    assert report.algorithm == "connectivity"


def test_context_manager_closes():
    with Session(_graph()) as session:
        session.run("connectivity")
        assert session.cache_info()["size"] == 1
    assert session.cache_info()["size"] == 0


def test_sweep_pool_is_reused_then_closed():
    session = Session(_graph())
    first = session.sweep("connectivity", seeds=(0, 1), processes=2)
    pool = session._pool
    assert pool is not None
    second = session.sweep("connectivity", seeds=(0, 1), processes=2)
    assert session._pool is pool  # same width -> same pool
    assert [r.to_dict(include_timing=False) for r in first] == [
        r.to_dict(include_timing=False) for r in second
    ]
    session.sweep("connectivity", seeds=(0,), processes=3)
    assert session._pool is not pool  # width change -> replaced
    session.close()
    assert session._pool is None


def test_sequential_and_pooled_sweeps_agree():
    session = Session(_graph(n=70))
    seq = session.sweep("connectivity", ks=(2, 4), seeds=(0, 1))
    with Session(_graph(n=70)) as other:
        par = other.sweep("connectivity", ks=(2, 4), seeds=(0, 1), processes=2)
    assert [r.to_dict(include_timing=False) for r in seq] == [
        r.to_dict(include_timing=False) for r in par
    ]


def test_concurrent_same_key_hammer_keeps_one_cluster():
    session = Session(_graph())
    cc = ClusterConfig(k=4)
    results: list = []
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(5):
            results.append(session.cluster_for(session.graph, cc, 0))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Every caller got the single surviving cluster; the cache never grew.
    assert len({id(c) for c in results}) == 1
    info = session.cache_info()
    assert info["size"] == 1
    assert info["hits"] + info["misses"] == 40


def test_concurrent_distinct_keys_all_cached():
    session = Session(_graph(), max_clusters=64)
    cc = ClusterConfig(k=4)
    barrier = threading.Barrier(6)

    def build(seed: int):
        barrier.wait()
        session.cluster_for(session.graph, cc, seed)

    threads = [threading.Thread(target=build, args=(s,)) for s in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    info = session.cache_info()
    assert info["size"] == 6
    assert info["misses"] == 6
    assert info["evictions"] == 0
