"""Comparator pass/fail behaviour: the perf gate's contract."""

from __future__ import annotations

import copy

import pytest

from repro.bench import (
    BenchResult,
    CellResult,
    Thresholds,
    compare_files,
    compare_paths,
    compare_results,
)


def _baseline() -> BenchResult:
    return BenchResult(
        bench="demo",
        title="demo bench",
        tier="quick",
        seed=0,
        environment={"python": "3.x"},
        cells=[
            CellResult(
                params={"n": 4},
                metrics={"rounds": 10, "total_bits": 1000, "correct": True},
                wall_time_s=1.0,
            ),
            CellResult(
                params={"n": 8},
                metrics={"rounds": 20, "total_bits": 4000, "correct": True},
                wall_time_s=2.0,
            ),
        ],
    )


def test_identical_results_pass():
    cmp = compare_results(_baseline(), _baseline())
    assert cmp.ok
    assert cmp.cells_compared == 2
    assert "OK" in cmp.render()


def test_rounds_regression_fails_exact_gate():
    cur = _baseline()
    cur.cells[0].metrics["rounds"] = 11
    cmp = compare_results(_baseline(), cur)
    assert not cmp.ok
    assert any(d.metric == "rounds" for d in cmp.regressions)


def test_improvement_also_fails_exact_gate():
    # Exact-match means a *stale baseline* is surfaced even when the drift
    # is an improvement; regenerate the artifact to acknowledge it.
    cur = _baseline()
    cur.cells[0].metrics["rounds"] = 9
    assert not compare_results(_baseline(), cur).ok


def test_type_drift_is_a_regression():
    # A metric that changes type (number -> string/None) reports as a
    # regression, like any other changed value.
    for drifted in ("11", None):
        cur = _baseline()
        cur.cells[0].metrics["rounds"] = drifted
        cmp = compare_results(_baseline(), cur)
        assert not cmp.ok
        assert any(d.metric == "rounds" for d in cmp.regressions)


def test_wall_time_gated_only_on_request():
    cur = _baseline()
    cur.cells[0].wall_time_s = 10.0  # 10x slower
    assert compare_results(_baseline(), cur).ok, "wall time ignored by default"
    cmp = compare_results(_baseline(), cur, Thresholds(wall_rel_tol=0.5))
    assert not cmp.ok
    assert any(d.metric == "wall_time_s" for d in cmp.regressions)
    # Within tolerance passes.
    cur.cells[0].wall_time_s = 1.2
    assert compare_results(_baseline(), cur, Thresholds(wall_rel_tol=0.5)).ok


def test_missing_cell_fails_new_cell_warns():
    cur = _baseline()
    dropped = cur.cells.pop(0)
    cmp = compare_results(_baseline(), cur)
    assert not cmp.ok
    assert any(d.note == "cell lost" for d in cmp.regressions)

    grown = _baseline()
    grown.cells.append(
        CellResult(params={"n": 16}, metrics={"rounds": 40}, wall_time_s=4.0)
    )
    cmp2 = compare_results(_baseline(), grown)
    assert cmp2.ok
    assert any(d.note == "new cell" for d in cmp2.warnings)
    del dropped


def test_metric_lost_fails_new_metric_warns():
    cur = _baseline()
    del cur.cells[0].metrics["total_bits"]
    cur.cells[1].metrics["extra"] = 1
    cmp = compare_results(_baseline(), cur)
    assert any(d.note == "metric lost" for d in cmp.regressions)
    assert any(d.note == "new metric" for d in cmp.warnings)


def test_envelope_mismatches_fail():
    cur = copy.deepcopy(_baseline())
    cur.tier = "full"
    assert not compare_results(_baseline(), cur).ok
    other = _baseline()
    other.bench = "other"
    assert not compare_results(_baseline(), other).ok


def test_compare_files_and_dirs(tmp_path):
    base_dir = tmp_path / "base"
    cur_dir = tmp_path / "cur"
    base = _baseline()
    cur = _baseline()
    base.write(base_dir)
    cur.write(cur_dir)
    assert compare_files(base_dir / base.filename, cur_dir / cur.filename).ok
    comparisons = compare_paths(base_dir, cur_dir)
    assert len(comparisons) == 1 and comparisons[0].ok

    # A baseline artifact missing from current is a lost-coverage failure.
    extra = _baseline()
    extra.bench = "demo_two"
    extra.write(base_dir)
    comparisons = compare_paths(base_dir, cur_dir)
    assert len(comparisons) == 2
    assert any(not c.ok for c in comparisons)


def test_compare_paths_rejects_mixed_modes(tmp_path):
    base = _baseline()
    path = base.write(tmp_path)
    with pytest.raises(ValueError, match="both"):
        compare_paths(path, tmp_path)
    (tmp_path / "empty_a").mkdir()
    (tmp_path / "empty_b").mkdir()
    with pytest.raises(ValueError, match="no BENCH"):
        compare_paths(tmp_path / "empty_a", tmp_path / "empty_b")
