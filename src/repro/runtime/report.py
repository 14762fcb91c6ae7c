"""The serializable :class:`RunReport` envelope every runtime run returns.

One schema for everything: the algorithm-specific result payload, ledger
totals (rounds, bits, congestion), per-phase diagnostics, wall time, and
the full config provenance (including the resolved seed), with lossless
``to_json()`` / ``from_json()`` round-tripping.  Benchmarks, examples and
``analysis/`` consume this envelope instead of each algorithm's bespoke
result dataclass; the dataclasses remain available under ``report.result``
in JSON-safe form.

Determinism contract: two runs with the same :class:`~repro.runtime.config.RunConfig`
and resolved seed produce byte-identical ``to_json(include_timing=False)``
output — pinned by ``tests/runtime/test_determinism.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = ["RunReport", "jsonify"]

#: Bump when the envelope layout changes incompatibly.
SCHEMA_VERSION = 1


def jsonify(value: Any) -> Any:
    """Recursively convert NumPy scalars/arrays (and tuples) to JSON-safe types."""
    if isinstance(value, np.ndarray):
        # tolist() already yields pure Python scalars all the way down; no
        # per-element recursion needed (labels arrays are O(n) per run).
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


@dataclass
class RunReport:
    """Envelope of one runtime run (see module docstring).

    Attributes
    ----------
    algorithm:
        Registry name the run was dispatched to.
    seed:
        The *resolved* seed (after precedence), sufficient to replay.
    config:
        ``RunConfig.to_dict()`` provenance.
    graph:
        Input summary: ``{"n": ..., "m": ..., "weighted": ...}``.
    result:
        Algorithm-specific payload, JSON-safe.
    ledger:
        :meth:`~repro.cluster.ledger.RoundLedger.totals` over the steps
        the run charged.
    phase_stats:
        Per-phase diagnostics as plain dicts (empty for phase-free runs).
    wall_time_s:
        Wall-clock duration; excluded from the determinism contract.
    schema:
        Envelope schema version.
    """

    algorithm: str
    seed: int
    config: dict
    graph: dict
    result: dict
    ledger: dict
    phase_stats: list = field(default_factory=list)
    wall_time_s: float = 0.0
    schema: int = SCHEMA_VERSION

    # -- convenience ------------------------------------------------------

    @property
    def rounds(self) -> int:
        """Total simulated k-machine rounds."""
        return int(self.ledger["rounds"])

    @property
    def work_rounds(self) -> int:
        """Rounds minus the one-round-per-step floor (the fitted term)."""
        return int(self.ledger["work_rounds"])

    @property
    def total_bits(self) -> int:
        """Total bits shipped across all links."""
        return int(self.ledger["total_bits"])

    # -- serialization ----------------------------------------------------

    def to_dict(self, *, include_timing: bool = True) -> dict[str, Any]:
        """A plain dict; drop ``wall_time_s`` when ``include_timing`` is False."""
        d: dict[str, Any] = {
            "schema": self.schema,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "config": jsonify(self.config),
            "graph": jsonify(self.graph),
            "result": jsonify(self.result),
            "ledger": jsonify(self.ledger),
            "phase_stats": jsonify(self.phase_stats),
        }
        if include_timing:
            d["wall_time_s"] = float(self.wall_time_s)
        return d

    def to_json(self, *, include_timing: bool = True, indent: int | None = None) -> str:
        """Canonical JSON (sorted keys): byte-deterministic for a fixed run."""
        return json.dumps(
            self.to_dict(include_timing=include_timing), sort_keys=True, indent=indent
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            algorithm=data["algorithm"],
            seed=int(data["seed"]),
            config=dict(data["config"]),
            graph=dict(data["graph"]),
            result=dict(data["result"]),
            ledger=dict(data["ledger"]),
            phase_stats=list(data.get("phase_stats", [])),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            schema=int(data.get("schema", SCHEMA_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One human line: what ran, on what, what it cost."""
        g = self.graph
        keys = ("n_components", "total_weight", "estimate", "answer")
        hits = [f"{k}={self.result[k]}" for k in keys if k in self.result]
        head = f"{self.algorithm} on n={g.get('n')}, m={g.get('m')}, k={self.config.get('cluster', {}).get('k')}"
        cost = f"rounds={self.rounds}, bits={self.total_bits}, wall={self.wall_time_s:.3f}s"
        return f"{head} (seed {self.seed}): {', '.join(hits) or 'done'}; {cost}"
