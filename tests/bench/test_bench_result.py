"""BenchResult envelope: serialization, determinism, and file round-trip."""

from __future__ import annotations

import json

from repro.bench import BenchResult, CellResult, bench_filename, cell_key, run_benchmark

#: Cheap, fully deterministic benchmark used for envelope tests.
CHEAP = "ablation_drr_vs_naive"


def _tiny_result() -> BenchResult:
    return BenchResult(
        bench="demo",
        title="demo bench",
        tier="quick",
        seed=3,
        environment={"python": "3.x", "git_sha": "abc"},
        cells=[
            CellResult(params={"n": 4, "k": 2}, metrics={"rounds": 7}, wall_time_s=0.25),
            CellResult(params={"n": 8, "k": 2}, metrics={"rounds": 11}, wall_time_s=0.5),
        ],
        wall_time_s=0.75,
    )


def test_json_round_trip_is_lossless():
    result = _tiny_result()
    back = BenchResult.from_json(result.to_json())
    assert back.to_dict() == result.to_dict()
    assert back.cells[1].wall_time_s == 0.5


def test_include_timing_false_strips_all_walltimes():
    d = _tiny_result().to_dict(include_timing=False)
    assert "wall_time_s" not in d
    assert all("wall_time_s" not in c for c in d["cells"])


def test_real_run_byte_deterministic_without_timing():
    a = run_benchmark(CHEAP, tier="quick")
    b = run_benchmark(CHEAP, tier="quick")
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)
    # ... and the timing variant differs only in the timing fields.
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def test_real_run_matches_spec_grid():
    from repro.bench import get_benchmark

    result = run_benchmark(CHEAP, tier="quick")
    spec = get_benchmark(CHEAP)
    assert result.tier == "quick"
    assert result.seed == spec.seed
    assert [c.params for c in result.cells] == [dict(c) for c in spec.quick_cells]
    for cell in result.cells:
        assert cell.metrics, "every cell must record metrics"
    assert {"python", "numpy", "platform", "git_sha"} <= set(result.environment)


def test_write_and_load(tmp_path):
    result = _tiny_result()
    path = result.write(tmp_path)
    assert path.name == bench_filename("demo") == "BENCH_demo.json"
    loaded = BenchResult.load(path)
    assert loaded.to_dict() == result.to_dict()
    # The artifact itself is sorted-key JSON (stable for git diffs).
    raw = json.loads(path.read_text())
    assert list(raw) == sorted(raw)


def test_cell_key_is_order_insensitive():
    assert cell_key({"a": 1, "b": 2}) == cell_key({"b": 2, "a": 1})
    result = _tiny_result()
    index = result.cell_index()
    assert index[cell_key({"k": 2, "n": 4})].metrics["rounds"] == 7


def test_rows():
    result = _tiny_result()
    assert result.rows(["n"], ["rounds"]) == [(4, 7), (8, 11)]
