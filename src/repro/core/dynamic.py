"""Incremental connectivity/MST under batched edge-update streams.

The other ``repro.core`` modules answer a query on a *static* input; this
module maintains the answer while the input mutates — the
cluster-computing dynamic-MST setting of Gilbert & Li ("How fast can you
update your MST?", arXiv:2002.06762; PAPERS.md).  The production story is
the live graph service: edges appear and disappear under traffic, and
recomputing the Theorem-2 MST from scratch per change would cost the full
O~(n/k) build every time.  Maintaining the forest instead costs O(1)-ish
rounds per *batch* of updates.

Two layers, matching the repository's simulation contract (DESIGN.md §5):

* :class:`MaintainedForest` computes the *real answer*: an exact
  sequential dynamic minimum-spanning-forest structure over an explicit
  edge set.  Insertions apply the classic cycle rule (the new edge swaps
  against the heaviest edge on the tree path between its endpoints);
  deletions of forest edges trigger a *replacement search* for the
  minimum-weight edge reconnecting the split component.  Both are the
  textbook exchange arguments, so after every update the maintained
  forest is a minimum spanning forest of the current edge set — the
  invariant the differential suite pins against recompute-from-scratch.
* :func:`dynamic_msf_updates` runs the distributed protocol: the initial
  structure is built by the Theorem-2 algorithm (paying its full round
  cost), then each :class:`~repro.scenarios.updates.UpdateBatch` is
  generated from its derived seed, applied to the maintained forest, and
  charged to the cluster's :class:`~repro.cluster.ledger.RoundLedger` as
  one bulk step ``update:batch:<i>`` whose k x k load matrix prices what
  the protocol actually ships: each update record scattered between its
  endpoints' home machines (``edge_bits``), one sketch word per
  repetition from every machine hosting a split component to the
  component's proxy for each replacement search (``sketch_word_bits``),
  and the announcement of every forest change.  Amortized update rounds
  land in the standard envelope (ledger breakdown key ``update``), so
  ``BENCH_dynamic_update_cost`` can gate them against full reruns.

Determinism: batch ``i`` draws every choice from
``batch_seed(plan.base_seed(run_seed), i)``; generation reads only the
maintained state, itself a pure function of (graph, plan, seed).  Two
runs with the same config replay the identical stream — see
DESIGN.md §11 and docs/update-plans.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.mst import MSTResult, minimum_spanning_tree_distributed
from repro.runtime.config import SketchConfig
from repro.scenarios.updates import UpdateBatch, UpdatePlan, batch_seed

__all__ = [
    "DynamicMSFResult",
    "MaintainedForest",
    "dynamic_msf_updates",
    "generate_batch",
    "inverse_updates",
]


def _canon(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected key (min, max)."""
    return (u, v) if u < v else (v, u)


class MaintainedForest:
    """Exact sequential dynamic minimum-spanning-forest structure.

    Holds the live edge set as a dict ``{(u, v): weight}`` (canonical
    ``u < v`` keys, insertion-ordered, so every scan is deterministic) and
    the current forest as an adjacency map.  All mutation goes through
    :meth:`apply`, which returns a record describing what the update did —
    the runner prices batches from exactly these records.

    Weight ties are broken toward keeping the incumbent forest edge
    (strict inequality in the cycle rule) and by ``(weight, u, v)`` in
    replacement searches, so the structure is deterministic even on
    non-unique weights; on unique weights (the repository's MST testing
    convention) it maintains *the* minimum spanning forest.
    """

    def __init__(self, graph) -> None:
        """Build the structure from a :class:`~repro.graphs.graph.Graph`.

        The initial forest is constructed by Kruskal over the initial
        edges — identical to the certified Theorem-2 output under unique
        weights; the distributed build's rounds are priced by the caller.
        """
        self.n = int(graph.n)
        self.edges: dict[tuple[int, int], float] = {}
        for u, v, w in zip(
            graph.edges_u.tolist(), graph.edges_v.tolist(), graph.weights.tolist()
        ):
            self.edges[(int(u), int(v))] = float(w)
        self._adj: dict[int, dict[int, float]] = {}
        self.tree: dict[tuple[int, int], float] = {}
        for (u, v), w in sorted(self.edges.items(), key=lambda kv: (kv[1], kv[0])):
            if self._find_path(u, v) is None:
                self._link(u, v, w)

    # -- forest primitives -------------------------------------------------

    def _link(self, u: int, v: int, w: float) -> None:
        self.tree[_canon(u, v)] = w
        self._adj.setdefault(u, {})[v] = w
        self._adj.setdefault(v, {})[u] = w

    def _unlink(self, u: int, v: int) -> None:
        del self.tree[_canon(u, v)]
        del self._adj[u][v]
        del self._adj[v][u]

    def _find_path(self, source: int, target: int) -> list[tuple[int, int]] | None:
        """The forest path source -> target as an edge list, or None."""
        if source == target:
            return []
        parent: dict[int, int] = {source: source}
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for x in frontier:
                for y in self._adj.get(x, ()):
                    if y not in parent:
                        parent[y] = x
                        if y == target:
                            path = []
                            node = target
                            while node != source:
                                path.append((parent[node], node))
                                node = parent[node]
                            path.reverse()
                            return path
                        nxt.append(y)
            frontier = nxt
        return None

    def component_of(self, vertex: int) -> set[int]:
        """The vertex set of ``vertex``'s forest component."""
        seen = {vertex}
        frontier = [vertex]
        while frontier:
            nxt = []
            for x in frontier:
                for y in self._adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    # -- queries -----------------------------------------------------------

    @property
    def total_weight(self) -> float:
        """Sum of the maintained forest's edge weights."""
        return float(sum(self.tree.values()))

    @property
    def n_components(self) -> int:
        """Number of connected components (isolated vertices included)."""
        return self.n - len(self.tree)

    def labels(self) -> np.ndarray:
        """Canonical component labels (each component labelled by its min id)."""
        labels = np.arange(self.n, dtype=np.int64)
        # Union-find over the forest edges; path-halving keeps it near-linear.
        parent = np.arange(self.n, dtype=np.int64)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = int(parent[x])
            return x

        for u, v in self.tree:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        for x in range(self.n):
            labels[x] = find(x)
        return labels

    def forest_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The forest as sorted ``(edges_u, edges_v, weights)`` arrays."""
        items = sorted(self.tree.items())
        u = np.array([e[0] for e, _ in items], dtype=np.int64)
        v = np.array([e[1] for e, _ in items], dtype=np.int64)
        w = np.array([wt for _, wt in items], dtype=np.float64)
        return u, v, w

    def as_graph(self):
        """The *current* edge set as an immutable Graph (recompute oracle)."""
        from repro.graphs.graph import Graph

        items = sorted(self.edges.items())
        u = np.array([e[0] for e, _ in items], dtype=np.int64)
        v = np.array([e[1] for e, _ in items], dtype=np.int64)
        w = np.array([wt for _, wt in items], dtype=np.float64)
        return Graph.from_edges(self.n, u, v, w)

    # -- updates -----------------------------------------------------------

    def apply(self, op: str, u: int, v: int, w: float | None = None) -> dict:
        """Apply one update; return the effect record the pricing reads.

        ``op`` is ``'insert'`` (requires ``w``) or ``'delete'``.  Inserting
        an existing edge re-weights it (delete + insert); deleting an
        absent edge is a no-op (``applied`` False).  The record carries
        ``op/u/v/weight/applied/tree_changed``, plus ``swapped_out`` for
        cycle-rule swaps and ``search`` (side vertices, the replacement
        found) for forest-edge deletions.
        """
        u, v = int(u), int(v)
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid edge ({u}, {v}) for n={self.n}")
        key = _canon(u, v)
        if op == "insert":
            if w is None:
                raise ValueError("insert needs a weight")
            return self._insert(key, float(w))
        if op == "delete":
            return self._delete(key)
        raise ValueError(f"op must be 'insert' or 'delete', got {op!r}")

    def _insert(self, key: tuple[int, int], w: float) -> dict:
        rec: dict = {
            "op": "insert",
            "u": key[0],
            "v": key[1],
            "weight": w,
            "applied": True,
            "replaced_weight": self.edges.get(key),
        }
        if key in self.edges:
            # Re-weighting: apply full delete semantics first so the forest
            # invariant never depends on which weight arrived first.
            self._delete(key)
        self.edges[key] = w
        path = self._find_path(key[0], key[1])
        if path is None:
            self._link(key[0], key[1], w)
            rec.update(tree_changed=True, merged=True, swapped_out=None)
            return rec
        heaviest = max(path, key=lambda e: (self.tree[_canon(*e)], _canon(*e)))
        hkey = _canon(*heaviest)
        if self.tree[hkey] > w:
            self._unlink(*hkey)
            self._link(key[0], key[1], w)
            rec.update(tree_changed=True, merged=False, swapped_out=hkey)
        else:
            rec.update(tree_changed=False, merged=False, swapped_out=None)
        return rec

    def _delete(self, key: tuple[int, int]) -> dict:
        rec: dict = {"op": "delete", "u": key[0], "v": key[1]}
        if key not in self.edges:
            rec.update(weight=None, applied=False, tree_changed=False)
            return rec
        w = self.edges.pop(key)
        rec.update(weight=w, applied=True)
        if key not in self.tree:
            rec["tree_changed"] = False
            return rec
        self._unlink(*key)
        # Replacement search: cheapest surviving edge crossing the split.
        side = self.component_of(key[0])
        best: tuple[float, tuple[int, int]] | None = None
        for (eu, ev), ew in self.edges.items():
            if (eu in side) != (ev in side):
                cand = (ew, (eu, ev))
                if best is None or cand < best:
                    best = cand
        if best is not None:
            self._link(best[1][0], best[1][1], best[0])
        rec.update(
            tree_changed=True,
            search={
                "side": side,
                "replacement": None if best is None else best[1],
                "replacement_weight": None if best is None else best[0],
            },
        )
        return rec


def inverse_updates(records: list[dict]) -> list[tuple[str, int, int, float | None]]:
    """The update sequence that undoes ``records`` (applied in order).

    The inverse of an applied insert is a delete; the inverse of an
    applied delete is an insert of the same weight.  No-op records
    (deletes of absent edges) invert to nothing.  Applying a batch and
    then its inverse restores the exact edge set — and therefore, by the
    forest invariant, the recompute answer (the hypothesis property in
    ``tests/scenarios/test_updates.py``).
    """
    out: list[tuple[str, int, int, float | None]] = []
    for rec in reversed(records):
        if not rec.get("applied"):
            continue
        if rec["op"] == "insert":
            out.append(("delete", rec["u"], rec["v"], None))
            if rec.get("replaced_weight") is not None:
                # A re-weighting insert overwrote an existing edge; undoing
                # it must also restore the incumbent weight.
                out.append(("insert", rec["u"], rec["v"], rec["replaced_weight"]))
        else:
            out.append(("insert", rec["u"], rec["v"], rec["weight"]))
    return out


def generate_batch(state: MaintainedForest, spec: UpdateBatch, seed: int) -> list[dict]:
    """Realize one :class:`UpdateBatch` spec against the current state.

    Generates updates one at a time and applies each immediately (the
    generator must see the evolving state — a ``tree_delete`` targets the
    *current* forest, which the previous deletion's replacement may have
    changed).  Deterministic in ``(state, spec, seed)``: all randomness
    comes from a PCG64 stream keyed by ``seed``, and every draw indexes
    insertion-ordered views of the state (see module docstring).  Returns
    the effect records from :meth:`MaintainedForest.apply`, in order —
    the inputs to both batch pricing and :func:`inverse_updates`.
    """
    spec.validate()
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    n = state.n
    wmax = max(state.edges.values(), default=1.0)
    records: list[dict] = []

    def random_insert(pool: list[int] | None = None) -> tuple[str, int, int, float]:
        while True:
            if pool is not None and len(pool) >= 2:
                i, j = rng.choice(len(pool), size=2, replace=False)
                u, v = pool[int(i)], pool[int(j)]
            else:
                u = int(rng.integers(n))
                v = int(rng.integers(n))
            if u != v:
                return ("insert", *_canon(u, v), float(rng.uniform(0.0, wmax)))

    def random_delete(pool: list[tuple[int, int]]) -> tuple[str, int, int, None]:
        key = pool[int(rng.integers(len(pool)))]
        return ("delete", key[0], key[1], None)

    if spec.kind == "tree_delete":
        for _ in range(spec.size):
            tree_edges = list(state.tree)
            if not tree_edges:
                break
            records.append(state.apply(*random_delete(tree_edges)))
        return records

    hub_pool: list[int] | None = None
    if spec.kind == "hot_component":
        hub = int(rng.integers(n))
        hub_pool = sorted(state.component_of(hub))

    for _ in range(spec.size):
        live = list(state.edges)
        if spec.kind == "hot_component":
            pool = hub_pool if hub_pool and len(hub_pool) >= 2 else None
            members = set(hub_pool or ())
            live = [e for e in live if e[0] in members and e[1] in members]
        else:
            pool = None
        if live and rng.random() >= spec.insert_fraction:
            records.append(state.apply(*random_delete(live)))
        else:
            records.append(state.apply(*random_insert(pool)))
    return records


@dataclass
class DynamicMSFResult:
    """Output of a maintained-forest run over an update stream.

    ``initial`` is the distributed Theorem-2 build (its rounds are the
    from-scratch cost every batch amortizes against); the remaining
    fields describe the maintained structure *after* the full stream.
    """

    initial: MSTResult
    labels: np.ndarray
    n_components: int
    total_weight: float
    forest_u: np.ndarray
    forest_v: np.ndarray
    forest_weights: np.ndarray
    final_m: int
    build_rounds: int
    update_rounds: int
    update_bits: int
    updates_applied: int
    batch_stats: list[dict] = field(default_factory=list)

    @property
    def n_edges(self) -> int:
        """Number of maintained forest edges."""
        return int(self.forest_u.size)


def _batch_load(
    k: int,
    home: np.ndarray,
    records: list[dict],
    plan: UpdatePlan,
    repetitions: int,
) -> np.ndarray:
    """The k x k bit-load matrix one applied batch puts on the links.

    Three traffic terms, all real protocol payloads (diagonal entries are
    machine-local and free, per the model):

    * ingest — each update record ships between its endpoints' homes;
    * replacement searches — every machine hosting a vertex of a split
      component contributes one ``sketch_word_bits`` word per repetition
      to the component's proxy (the home of its minimum vertex), which
      announces any replacement edge back to that edge's homes;
    * swaps — a cycle-rule swap announces the evicted edge to its homes.
    """
    load = np.zeros((k, k), dtype=np.int64)
    eb = plan.edge_bits
    for rec in records:
        if not rec.get("applied"):
            continue
        hu, hv = int(home[rec["u"]]), int(home[rec["v"]])
        load[hu, hv] += eb
        swapped = rec.get("swapped_out")
        if swapped is not None:
            load[int(home[swapped[0]]), int(home[swapped[1]])] += eb
        search = rec.get("search")
        if search is not None:
            side = search["side"]
            proxy = int(home[min(side)])
            for machine in np.unique(home[np.fromiter(side, dtype=np.int64)]):
                load[int(machine), proxy] += repetitions * plan.sketch_word_bits
            repl = search["replacement"]
            if repl is not None:
                load[proxy, int(home[repl[0]])] += eb
                load[proxy, int(home[repl[1]])] += eb
    return load


def dynamic_msf_updates(
    cluster,
    seed: int = 0,
    plan: UpdatePlan | None = None,
    *,
    sketch: SketchConfig | None = None,
    max_phases: int | None = None,
) -> DynamicMSFResult:
    """Build the MST distributively, then replay ``plan`` against it.

    This is the implementation behind the ``"mst_dynamic"`` registry
    entry; prefer ``Session.run("mst_dynamic", ...)`` for new code.  The
    initial build is the full Theorem-2 run (charging the cluster's
    ledger as usual); every subsequent batch is charged as one
    ``update:batch:<i>`` bulk step priced by :func:`_batch_load`.  With a
    benign plan the run is byte-identical to ``"mst"`` plus the
    maintained-state bookkeeping — no update steps are charged.
    ``sketch`` is defaulted and validated on entry as in
    :func:`~repro.core.connectivity.connected_components_distributed`; the
    initial build runs with it, and its repetition count prices each
    replacement search.
    """
    plan = (plan if plan is not None else UpdatePlan()).validate()
    sketch = (sketch if sketch is not None else SketchConfig()).validate()
    ledger = cluster.ledger
    rounds_before = ledger.total_rounds
    initial = minimum_spanning_tree_distributed(cluster, seed, sketch=sketch, max_phases=max_phases)
    build_rounds = ledger.total_rounds - rounds_before

    state = MaintainedForest(cluster.graph)
    home = np.asarray(cluster.partition.home, dtype=np.int64)
    k = int(cluster.k)
    base = plan.base_seed(seed)
    update_rounds = 0
    update_bits = 0
    updates_applied = 0
    batch_stats: list[dict] = []
    for i, spec in enumerate(plan.batches):
        records = generate_batch(state, spec, batch_seed(base, i))
        load = _batch_load(k, home, records, plan, sketch.repetitions)
        rounds = ledger.charge_load_matrix(
            f"update:batch:{i}", load, messages=sum(1 for r in records if r["applied"])
        )
        applied = [r for r in records if r["applied"]]
        searches = [r for r in applied if r.get("search") is not None]
        off = load.copy()
        np.fill_diagonal(off, 0)
        bits = int(off.sum())
        update_rounds += rounds
        update_bits += bits
        updates_applied += len(applied)
        batch_stats.append(
            {
                "batch": i,
                "kind": spec.kind,
                "requested": spec.size,
                "applied": len(applied),
                "inserts": sum(1 for r in applied if r["op"] == "insert"),
                "deletes": sum(1 for r in applied if r["op"] == "delete"),
                "tree_changes": sum(1 for r in applied if r["tree_changed"]),
                "replacement_searches": len(searches),
                "replacements_found": sum(
                    1 for r in searches if r["search"]["replacement"] is not None
                ),
                "rounds": int(rounds),
                "bits": bits,
                "n_components": state.n_components,
            }
        )

    forest_u, forest_v, forest_weights = state.forest_arrays()
    return DynamicMSFResult(
        initial=initial,
        labels=state.labels(),
        n_components=state.n_components,
        total_weight=state.total_weight,
        forest_u=forest_u,
        forest_v=forest_v,
        forest_weights=forest_weights,
        final_m=len(state.edges),
        build_rounds=build_rounds,
        update_rounds=update_rounds,
        update_bits=update_bits,
        updates_applied=updates_applied,
        batch_stats=batch_stats,
    )
