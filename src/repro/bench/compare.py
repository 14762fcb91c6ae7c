"""The perf-gate comparator: diff two BENCH envelopes and fail on regressions.

The simulation metrics are deterministic in (spec, tier, seed), so the
default gate is *exact*: any drift in rounds, bits, or any other recorded
metric between a committed baseline and a fresh run is a behaviour change
that must be acknowledged by regenerating the baseline.  Wall time is
machine noise and is gated only when a tolerance is explicitly given.

Three layers, all pure:

* :func:`compare_results` — two in-memory envelopes -> :class:`Comparison`.
* :func:`compare_files` — two ``BENCH_*.json`` files.
* :func:`compare_paths` — two files *or* two directories (matched by
  artifact name) -> list of comparisons; what the CLI and CI call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.result import BenchResult

__all__ = [
    "Comparison",
    "Difference",
    "Thresholds",
    "compare_files",
    "compare_paths",
    "compare_results",
]


@dataclass(frozen=True)
class Thresholds:
    """Gate configuration.  Metrics are always gated exactly.

    Attributes
    ----------
    wall_rel_tol:
        Allowed relative wall-time growth per cell (e.g. ``0.5`` = +50%);
        ``None`` (default) ignores wall time entirely.
    """

    wall_rel_tol: float | None = None


@dataclass(frozen=True)
class Difference:
    """One gated discrepancy between baseline and current."""

    bench: str
    cell: str  # canonical params key, or "" for envelope-level issues
    metric: str
    baseline: object
    current: object
    note: str = ""

    def render(self) -> str:
        where = f"{self.bench}[{self.cell}]" if self.cell else self.bench
        tail = f" ({self.note})" if self.note else ""
        return f"{where} {self.metric}: baseline={self.baseline} current={self.current}{tail}"


@dataclass
class Comparison:
    """Outcome of comparing one benchmark's baseline vs current envelope."""

    bench: str
    regressions: list[Difference] = field(default_factory=list)
    warnings: list[Difference] = field(default_factory=list)
    cells_compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"{status} {self.bench}: {self.cells_compared} cells, "
            f"{len(self.regressions)} regressions, {len(self.warnings)} warnings"
        ]
        lines += [f"  REGRESSION {d.render()}" for d in self.regressions]
        lines += [f"  warning    {d.render()}" for d in self.warnings]
        return "\n".join(lines)


def _diff_metrics(
    bench: str, key: str, base: dict, cur: dict
) -> tuple[list[Difference], list[Difference]]:
    """Lost metrics and changed values regress; new metrics only warn."""
    regressions: list[Difference] = []
    warnings: list[Difference] = []
    for metric in sorted(set(base) | set(cur)):
        if metric not in cur:
            regressions.append(Difference(bench, key, metric, base[metric], None, "metric lost"))
            continue
        if metric not in base:
            warnings.append(Difference(bench, key, metric, None, cur[metric], "new metric"))
            continue
        if base[metric] != cur[metric]:
            regressions.append(Difference(bench, key, metric, base[metric], cur[metric]))
    return regressions, warnings


def compare_results(
    baseline: BenchResult, current: BenchResult, thresholds: Thresholds | None = None
) -> Comparison:
    """Gate ``current`` against ``baseline`` (see module docstring)."""
    th = thresholds if thresholds is not None else Thresholds()
    cmp = Comparison(bench=baseline.bench)
    if baseline.bench != current.bench:
        cmp.regressions.append(
            Difference(baseline.bench, "", "bench", baseline.bench, current.bench, "name mismatch")
        )
        return cmp
    for scalar in ("tier", "seed", "schema"):
        b, c = getattr(baseline, scalar), getattr(current, scalar)
        if b != c:
            cmp.regressions.append(
                Difference(baseline.bench, "", scalar, b, c, "envelope mismatch")
            )
    base_cells = baseline.cell_index()
    cur_cells = current.cell_index()
    for key in base_cells:
        if key not in cur_cells:
            cmp.regressions.append(
                Difference(baseline.bench, key, "cell", "present", None, "cell lost")
            )
    for key in cur_cells:
        if key not in base_cells:
            cmp.warnings.append(
                Difference(baseline.bench, key, "cell", None, "present", "new cell")
            )
    for key, base_cell in base_cells.items():
        cur_cell = cur_cells.get(key)
        if cur_cell is None:
            continue
        cmp.cells_compared += 1
        regs, warns = _diff_metrics(baseline.bench, key, base_cell.metrics, cur_cell.metrics)
        cmp.regressions += regs
        cmp.warnings += warns
        if th.wall_rel_tol is not None and base_cell.wall_time_s > 0:
            limit = base_cell.wall_time_s * (1.0 + th.wall_rel_tol)
            if cur_cell.wall_time_s > limit:
                cmp.regressions.append(
                    Difference(
                        baseline.bench,
                        key,
                        "wall_time_s",
                        round(base_cell.wall_time_s, 4),
                        round(cur_cell.wall_time_s, 4),
                        f"over +{th.wall_rel_tol:.0%} budget",
                    )
                )
    return cmp


def compare_files(
    baseline_path: str | Path,
    current_path: str | Path,
    thresholds: Thresholds | None = None,
) -> Comparison:
    """Compare two ``BENCH_*.json`` files."""
    return compare_results(
        BenchResult.load(baseline_path), BenchResult.load(current_path), thresholds
    )


def _bench_files(directory: Path) -> dict[str, Path]:
    return {p.name: p for p in sorted(directory.glob("BENCH_*.json"))}


def compare_paths(
    baseline: str | Path,
    current: str | Path,
    thresholds: Thresholds | None = None,
) -> list[Comparison]:
    """Compare two files, or two directories of ``BENCH_*.json`` artifacts.

    Directory mode matches artifacts by filename; a baseline artifact with
    no current counterpart is a regression (coverage lost), a new current
    artifact is allowed (it has no baseline to regress against).
    """
    base, cur = Path(baseline), Path(current)
    if base.is_file() and cur.is_file():
        return [compare_files(base, cur, thresholds)]
    if not (base.is_dir() and cur.is_dir()):
        raise ValueError(
            f"baseline and current must both be files or both directories: {base} vs {cur}"
        )
    base_files = _bench_files(base)
    cur_files = _bench_files(cur)
    if not base_files:
        raise ValueError(f"no BENCH_*.json artifacts under {base}")
    comparisons = []
    for name, bpath in base_files.items():
        if name not in cur_files:
            # Report under the bare bench name (filename minus affixes) so
            # gate output lines up with `bench list`.
            bench = name.removeprefix("BENCH_").removesuffix(".json")
            missing = Comparison(bench=bench)
            missing.regressions.append(
                Difference(bench, "", "artifact", "present", None, "missing from current")
            )
            comparisons.append(missing)
            continue
        comparisons.append(compare_files(bpath, cur_files[name], thresholds))
    return comparisons
