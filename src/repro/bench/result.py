"""The serializable :class:`BenchResult` envelope every benchmark run emits.

A benchmark run evaluates a scenario grid (one :class:`CellResult` per grid
point) and records enough provenance to replay or audit it later: the
resolved seed, the tier that selected the grid, and the environment the
numbers were produced on (python/numpy versions, platform, git SHA).  The
envelope serializes losslessly to ``BENCH_<name>.json`` — the repo-root
perf trajectory that CI regenerates and gates on every PR.

Determinism contract: the simulation metrics (rounds, bits, counts) are
pure functions of (spec, tier, seed), so two runs on one machine produce
byte-identical ``to_json(include_timing=False)`` output — wall times are
the only nondeterministic field and that flag strips them.  Pinned by
``tests/bench/test_bench_result.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.runtime.report import jsonify

__all__ = ["BenchResult", "CellResult", "bench_filename", "cell_key"]

#: Bump when the envelope layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Benchmark tiers: ``quick`` is the CI smoke grid, ``full`` the paper grid.
TIERS = ("quick", "full")


def bench_filename(name: str) -> str:
    """The canonical artifact name for benchmark ``name``."""
    return f"BENCH_{name}.json"


def cell_key(params: Mapping[str, Any]) -> str:
    """Canonical string identity of a grid point (sorted-key JSON)."""
    return json.dumps(jsonify(dict(params)), sort_keys=True)


@dataclass
class CellResult:
    """One scenario grid point: its parameters, metrics, and wall time.

    ``metrics`` carries the simulation-determined numbers (round counts,
    ledger bit/message totals, counts, correctness flags); anything
    nondeterministic belongs in ``wall_time_s`` so the determinism contract
    stays byte-exact.
    """

    params: dict
    metrics: dict
    wall_time_s: float = 0.0

    def to_dict(self, *, include_timing: bool = True) -> dict[str, Any]:
        d: dict[str, Any] = {
            "params": jsonify(self.params),
            "metrics": jsonify(self.metrics),
        }
        if include_timing:
            d["wall_time_s"] = float(self.wall_time_s)
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        return cls(
            params=dict(data["params"]),
            metrics=dict(data["metrics"]),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
        )

    @property
    def key(self) -> str:
        return cell_key(self.params)


@dataclass
class BenchResult:
    """Envelope of one benchmark run (see module docstring).

    Attributes
    ----------
    bench:
        Registry name the run was dispatched to.
    title:
        Human one-liner from the :class:`~repro.bench.registry.BenchSpec`.
    tier:
        ``'quick'`` or ``'full'`` — which scenario grid was evaluated.
    seed:
        The resolved base seed (cell runners derive per-repetition seeds
        from it deterministically).
    environment:
        Provenance dict from :func:`repro.bench.environment.capture_environment`.
    cells:
        One :class:`CellResult` per grid point, in grid order.
    wall_time_s:
        End-to-end duration; excluded from the determinism contract.
    """

    bench: str
    title: str
    tier: str
    seed: int
    environment: dict
    cells: list[CellResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    schema: int = BENCH_SCHEMA_VERSION

    # -- access ------------------------------------------------------------

    @property
    def filename(self) -> str:
        return bench_filename(self.bench)

    def cell_index(self) -> dict[str, CellResult]:
        """Cells keyed by their canonical params identity."""
        return {c.key: c for c in self.cells}

    def rows(self, param_names: Iterable[str], metric_names: Iterable[str]) -> list[tuple]:
        """Tabular view: one tuple per cell with the named params + metrics."""
        pn, mn = list(param_names), list(metric_names)
        return [
            tuple(c.params.get(p) for p in pn) + tuple(c.metrics.get(m) for m in mn)
            for c in self.cells
        ]

    # -- serialization -----------------------------------------------------

    def to_dict(self, *, include_timing: bool = True) -> dict[str, Any]:
        d: dict[str, Any] = {
            "schema": self.schema,
            "bench": self.bench,
            "title": self.title,
            "tier": self.tier,
            "seed": self.seed,
            "environment": jsonify(self.environment),
            "cells": [c.to_dict(include_timing=include_timing) for c in self.cells],
        }
        if include_timing:
            d["wall_time_s"] = float(self.wall_time_s)
        return d

    def to_json(self, *, include_timing: bool = True, indent: int | None = 2) -> str:
        """Canonical JSON (sorted keys); byte-deterministic without timing."""
        return json.dumps(
            self.to_dict(include_timing=include_timing), sort_keys=True, indent=indent
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchResult":
        return cls(
            bench=data["bench"],
            title=data.get("title", data["bench"]),
            tier=data["tier"],
            seed=int(data["seed"]),
            environment=dict(data.get("environment", {})),
            cells=[CellResult.from_dict(c) for c in data.get("cells", [])],
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            schema=int(data.get("schema", BENCH_SCHEMA_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchResult":
        return cls.from_dict(json.loads(text))

    def write(self, directory: str | Path = ".") -> Path:
        """Write ``BENCH_<name>.json`` under ``directory``; return the path."""
        path = Path(directory) / self.filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BenchResult":
        """Read one ``BENCH_*.json`` file back into an envelope."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def summary(self) -> str:
        """One human line: what ran, how many cells, what it cost."""
        return (
            f"{self.bench} [{self.tier}] seed={self.seed}: "
            f"{len(self.cells)} cells in {self.wall_time_s:.2f}s"
        )
