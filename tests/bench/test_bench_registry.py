"""Registry round-trip and spec invariants over every registered benchmark."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import get_benchmark, list_benchmarks, register_benchmark
from repro.bench.registry import BENCH_GROUPS
from repro.bench.result import BenchResult, bench_filename, cell_key

REPO_ROOT = Path(__file__).resolve().parents[2]
# Committed baselines: the quick tier at the root (what ``repro bench
# compare .`` gates against) and the full tier under benchmarks/results/.
BASELINE_DIRS = {"quick": REPO_ROOT, "full": REPO_ROOT / "benchmarks" / "results"}


def test_registry_is_populated():
    # The migrated benchmarks/bench_*.py grids: at least the 18 historical
    # scripts' worth of registered entries.
    assert len(list_benchmarks()) >= 18


@pytest.mark.parametrize("name", list_benchmarks())
def test_round_trip_every_name(name):
    spec = get_benchmark(name)
    assert spec.name == name
    assert spec.title
    assert spec.group in BENCH_GROUPS
    assert callable(spec.runner)


@pytest.mark.parametrize("name", list_benchmarks())
def test_grids_are_json_safe_and_nonempty(name):
    spec = get_benchmark(name)
    assert spec.cells and spec.quick_cells
    for cell in (*spec.cells, *spec.quick_cells):
        json.dumps(cell)  # params must be JSON-safe as-is


@pytest.mark.parametrize("name", list_benchmarks())
def test_tier_selection(name):
    spec = get_benchmark(name)
    assert spec.cells_for("full") == spec.cells
    assert spec.cells_for("quick") == spec.quick_cells
    with pytest.raises(ValueError, match="tier"):
        spec.cells_for("nope")


@pytest.mark.parametrize("name", list_benchmarks())
def test_committed_baselines_record_the_registered_grids(name):
    spec = get_benchmark(name)
    for tier, directory in BASELINE_DIRS.items():
        result = BenchResult.load(directory / bench_filename(name))
        assert (result.bench, result.tier) == (name, tier)
        recorded = [cell_key(cell.params) for cell in result.cells]
        assert recorded == [cell_key(cell) for cell in spec.cells_for(tier)]


def test_every_committed_baseline_names_a_registered_benchmark():
    registered = {bench_filename(name) for name in list_benchmarks()}
    for directory in BASELINE_DIRS.values():
        committed = {p.name for p in directory.glob("BENCH_*.json")}
        assert committed == registered, directory


def test_unknown_name_lists_options():
    with pytest.raises(KeyError, match="available"):
        get_benchmark("no_such_benchmark")


def test_duplicate_registration_rejected():
    name = list_benchmarks()[0]
    with pytest.raises(ValueError, match="already registered"):
        register_benchmark(
            name,
            title="dup",
            group="ablation",
            cells=[{"n": 1}],
            quick_cells=[{"n": 1}],
        )(lambda cell, seed: {})


def test_bad_group_rejected():
    with pytest.raises(ValueError, match="group"):
        register_benchmark(
            "bad_group_bench",
            title="x",
            group="nope",
            cells=[{"n": 1}],
            quick_cells=[{"n": 1}],
        )(lambda cell, seed: {})


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        register_benchmark(
            "empty_grid_bench",
            title="x",
            group="ablation",
            cells=[],
            quick_cells=[{"n": 1}],
        )(lambda cell, seed: {})
