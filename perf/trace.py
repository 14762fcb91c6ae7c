"""Outside-in layer trace: spans around calls into each layer's public functions.

Nothing under ``src/`` knows about this module.  :func:`installed` replaces a
fixed set of class methods and import-site module functions with thin
wrappers that open a span on entry and close it on return, and puts the
originals back when its ``with`` block ends.  Each span records its name, start, end,
parent span and thread, plus a few counts measured at the same boundary
(incidences sketched, tensor cells built, groups sampled).  Spans stay in
memory in a :class:`Recorder` and are written out when the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  :func:`summarize` folds spans into per-layer self time, call
counts and summed counts; the benchmark divides those by the number of
operations it ran.

Timestamps come from ``time.perf_counter``, which on Linux reads the
system-wide ``CLOCK_MONOTONIC``, so spans written by the server process can be
windowed against client-side timestamps.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple

import numpy as np

__all__ = [
    "DISPATCH_LAYERS",
    "LIBRARY_LAYERS",
    "SERVER_LAYERS",
    "Recorder",
    "Span",
    "coverage",
    "install",
    "installed",
    "uninstall",
    "layer_metrics",
    "subtree",
    "summarize",
]


class Span(NamedTuple):
    """One closed span (``parent`` is ``-1`` for a root)."""

    id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    counts: dict | None


class Recorder:
    """In-memory span store; safe to share between threads.

    Every thread keeps its own stack of open spans, so spans opened on the
    service's worker threads nest under that thread's own parents.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int]:
        """Push a new span id; return ``(id, parent id)``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent

    def close(
        self, sid: int, parent: int, name: str, start: float, end: float, counts: dict | None
    ) -> None:
        """Pop ``sid`` and store the finished span."""
        self._stack().pop()
        self.spans.append(
            Span(sid, parent, name, start, end, threading.get_ident(), counts)
        )

    @contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span named ``name``."""
        sid, parent = self.open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.close(sid, parent, name, start, time.perf_counter(), None)

    def dump(self, path: str, **extra) -> None:
        """Write every span to ``path`` as JSON (one list per span), plus ``extra``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [list(s) for s in self.spans]}, fh)


# -- counts measured at the layer boundaries ---------------------------------


def _context_counts(args, kwargs, out) -> dict:
    ctx = args[0]
    return {"incidences": ctx.n_incidences}


def _group_sums_counts(args, kwargs, out) -> dict:
    ctx = args[0]
    group_idx = kwargs.get("group_idx", args[1] if len(args) > 1 else None)
    mask = kwargs.get("mask", args[3] if len(args) > 3 else None)
    incidences = int(np.count_nonzero(mask)) if mask is not None else int(np.size(group_idx))
    return {
        "incidences": incidences,
        # One (incidence, repetition) entry per live input: the work a
        # sparse layout would do, against the dense cells actually built.
        "entries": incidences * ctx.spec.repetitions,
        "cells": int(out.counts.size),
    }


def _sample_counts(args, kwargs, out) -> dict:
    return {"groups": args[0].n_groups, "found": int(np.count_nonzero(out.found))}


#: (module, class or None for a module function, attribute, span name, counts)
LIBRARY_LAYERS: tuple = (
    ("repro.sketch.l0", "SketchContext", "__init__", "sketch.context", _context_counts),
    ("repro.sketch.l0", "SketchContext", "group_sums", "sketch.group_sums", _group_sums_counts),
    ("repro.sketch.l0", "SketchBundle", "sample", "sketch.sample", _sample_counts),
    ("repro.core.labels", "PartIndex", "build", "core.labels", None),
    ("repro.cluster.cluster", "KMachineCluster", "create", "cluster.create", None),
    ("repro.cluster.comm", "CommStep", "deliver", "cluster.deliver", None),
    ("repro.cluster.ledger", "RoundLedger", "charge_load_matrix", "cluster.ledger", None),
    ("repro.runtime.report", "RunReport", "to_dict", "runtime.report", None),
    ("repro.runtime.registry", "AlgorithmSpec", "run", "runtime.run", None),
    # Module functions are wrapped where the algorithms look them up.
    ("repro.core.connectivity", None, "select_outgoing_edges", "core.select", None),
    ("repro.core.connectivity", None, "build_drr_forest", "core.drr", None),
    ("repro.core.connectivity", None, "charge_forest_build", "core.drr", None),
    ("repro.core.connectivity", None, "merge_forest", "core.drr", None),
    ("repro.core.mst", None, "select_outgoing_edges", "core.select", None),
    ("repro.core.mst", None, "build_drr_forest", "core.drr", None),
    ("repro.core.mst", None, "charge_forest_build", "core.drr", None),
    ("repro.core.mst", None, "merge_forest", "core.drr", None),
)

#: Extra boundaries inside ``repro serve``: one root span per executed request.
SERVER_LAYERS: tuple = (
    ("repro.service.server", "_Worker", "execute", "service.execute", None),
    ("repro.service.protocol", "RunRequest", "build_graph", "graphs.generate", None),
)


def _wrap(recorder: Recorder, fn: Callable, name: str, counter) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = recorder.open()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            recorder.close(sid, parent, name, start, time.perf_counter(), None)
            raise
        end = time.perf_counter()
        counts = counter(args, kwargs, out) if counter else None
        recorder.close(sid, parent, name, start, end, counts)
        return out

    return wrapper


def install(recorder: Recorder, layers: Iterable[tuple] = LIBRARY_LAYERS) -> list[tuple]:
    """Wrap every boundary in ``layers``; return what :func:`uninstall` needs."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, cls_name, attr, name, counter in layers:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(recorder, raw.__func__, name, counter))
            else:
                wrapped = _wrap(recorder, raw, name, counter)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Put back the originals that :func:`install` replaced."""
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


@contextmanager
def installed(recorder: Recorder, layers: Iterable[tuple] = LIBRARY_LAYERS):
    """Wrap every boundary in ``layers`` for the duration of a ``with`` block."""
    undo = install(recorder, layers)
    try:
        yield recorder
    finally:
        uninstall(undo)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s``, ``total_s``, ``calls`` and summed counts.

    ``spans`` must contain every child of every span it contains (a whole
    subtree); self time subtracts direct children only.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += s.end - s.start - child_time.get(s.id, 0.0)
        for key, value in (s.counts or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in out.items()}


#: Layers that only dispatch to the named layers below them: their self
#: time is code no named layer owns, so :func:`coverage` counts it as
#: uncovered.
DISPATCH_LAYERS = ("runtime.run",)


def coverage(spans: list[Span], root: str) -> float:
    """Share of the ``root`` spans' wall spent in the self time of named layers.

    ``spans`` must be whole subtrees under the ``root`` spans.  The self
    time of the roots and of :data:`DISPATCH_LAYERS` is what no named
    layer accounts for; coverage is one minus its share of the roots' wall.
    """
    table = summarize(spans)
    wall = table.get(root, {}).get("total_s", 0.0)
    if wall <= 0:
        return 0.0
    unowned = sum(table.get(name, {}).get("self_s", 0.0) for name in (root, *DISPATCH_LAYERS))
    return 1.0 - unowned / wall


def layer_metrics(
    op_spans: list[Span], setup_spans: list[Span], ops: int, setups: int
) -> dict[str, float]:
    """The per-layer metrics: self times and counts per op (or per setup).

    ``op_spans`` hold the spans of ``ops`` operations; ``setup_spans`` those
    of ``setups`` set-ups (graph generation and cluster construction).
    """
    run = summarize(op_spans)
    setup = summarize(setup_spans)

    def get(table: dict, name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    def per_op(name: str, key: str) -> float:
        return get(run, name, key) / ops

    cells = get(run, "sketch.group_sums", "cells")
    groups = get(run, "sketch.sample", "groups")
    ledger_s = per_op("cluster.deliver", "self_s") + per_op("cluster.ledger", "self_s")
    return {
        "sketch.context_s": per_op("sketch.context", "self_s"),
        "sketch.context_calls": per_op("sketch.context", "calls"),
        "sketch.context_incidences": per_op("sketch.context", "incidences"),
        "sketch.group_sums_s": per_op("sketch.group_sums", "self_s"),
        "sketch.group_sums_calls": per_op("sketch.group_sums", "calls"),
        "sketch.group_sums_cells": per_op("sketch.group_sums", "cells"),
        "sketch.group_sums_incidences": per_op("sketch.group_sums", "incidences"),
        "sketch.live_ratio": get(run, "sketch.group_sums", "entries") / cells if cells else 0.0,
        "sketch.sample_s": per_op("sketch.sample", "self_s"),
        "sketch.sample_groups": per_op("sketch.sample", "groups"),
        "sketch.sample_found_ratio": get(run, "sketch.sample", "found") / groups if groups else 0.0,
        "core.select_s": per_op("core.select", "self_s"),
        "core.select_calls": per_op("core.select", "calls"),
        "core.labels_s": per_op("core.labels", "self_s"),
        "core.drr_s": per_op("core.drr", "self_s"),
        "cluster.ledger_s": ledger_s,
        "cluster.ledger_steps": per_op("cluster.ledger", "calls"),
        "cluster.create_s": get(setup, "cluster.create", "self_s") / setups,
        "graphs.generate_s": get(setup, "graphs.generate", "self_s") / setups,
        "runtime.run_s": per_op("runtime.run", "self_s"),
        "runtime.report_s": per_op("runtime.report", "self_s"),
    }


def subtree(spans: list[Span], roots: Iterable[int]) -> list[Span]:
    """The spans under (and including) the given root ids."""
    keep = set(roots)
    by_parent: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_parent[s.parent].append(s)
    out = [s for s in spans if s.id in keep]
    frontier = list(keep)
    while frontier:
        nxt = []
        for sid in frontier:
            for child in by_parent.get(sid, ()):
                out.append(child)
                nxt.append(child.id)
        frontier = nxt
    return out
