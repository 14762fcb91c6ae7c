"""Unit tests for dynamic update streams: UpdatePlan, the forest, the runtime path.

The contracts pinned here (DESIGN.md §11):

* plans are typed, validated and JSON-round-trippable (standalone and
  nested in :class:`~repro.runtime.config.RunConfig`, including through
  the process-pool sweep path and the scenario registry);
* the differential invariant — after **every** batch the maintained
  forest equals a recompute-from-scratch on the current edge set (weight
  and component count), across worst-case families, seeds and batch
  kinds;
* every batch is invertible: applying a batch and then its
  :func:`~repro.core.dynamic.inverse_updates` restores the exact edge
  set (the hypothesis property);
* dynamic runs are byte-deterministic, benign plans are invisible, and
  static algorithms reject a non-benign plan instead of ignoring it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import MaintainedForest, generate_batch, inverse_updates
from repro.corpus.families import sized_graph
from repro.graphs import reference as ref
from repro.runtime import ClusterConfig, RunConfig, Session, UpdatePlan
from repro.runtime.config import ConfigError
from repro.scenarios.churn import ChurnEvent, ChurnPlan
from repro.scenarios.faults import FaultPlan
from repro.scenarios.updates import UpdateBatch, UpdateConfigError, batch_seed
from repro.util.rng import derive_seed

K = 4

#: A plan exercising all three batch kinds, valid for any maintained state.
STORM = UpdatePlan(
    batches=(
        UpdateBatch(kind="mix", size=12, insert_fraction=0.5),
        UpdateBatch(kind="tree_delete", size=6),
        UpdateBatch(kind="hot_component", size=8, insert_fraction=0.75),
    )
)


def _graph(seed: int = 5, n: int = 120, family: str = "gnm"):
    return sized_graph(family, n, derive_seed(seed, n, 0x5CE), weighted=True)


def _config(updates, seed: int = 5, **kwargs) -> RunConfig:
    return RunConfig(seed=seed, cluster=ClusterConfig(k=K), updates=updates, **kwargs)


class TestUpdatePlan:
    def test_roundtrip(self):
        plan = STORM
        again = UpdatePlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again == plan

    def test_benign(self):
        assert UpdatePlan().is_benign
        assert not STORM.is_benign

    @pytest.mark.parametrize(
        "batch",
        [
            UpdateBatch(kind="meteor"),
            UpdateBatch(size=0),
            UpdateBatch(size=-3),
            UpdateBatch(insert_fraction=-0.1),
            UpdateBatch(insert_fraction=1.5),
        ],
    )
    def test_bad_batches_rejected(self, batch):
        with pytest.raises(UpdateConfigError):
            UpdatePlan(batches=(batch,)).validate()

    @pytest.mark.parametrize("field", ["edge_bits", "sketch_word_bits"])
    def test_bit_knobs_must_be_positive(self, field):
        with pytest.raises(UpdateConfigError):
            UpdatePlan(**{field: 0}).validate()

    def test_unknown_keys_rejected(self):
        payload = STORM.to_dict()
        payload["surprise"] = 1
        with pytest.raises(TypeError):
            UpdatePlan.from_dict(payload)
        bad_batch = STORM.to_dict()
        bad_batch["batches"][0]["surprise"] = 1
        with pytest.raises(TypeError):
            UpdatePlan.from_dict(bad_batch)

    def test_nested_config_roundtrip(self):
        cfg = _config(STORM)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.updates == STORM
        assert again == cfg

    def test_config_validates_plan(self):
        bad = UpdatePlan(batches=(UpdateBatch(size=0),))
        with pytest.raises((ConfigError, UpdateConfigError)):
            _config(bad).validate()

    def test_clean_config_provenance_is_byte_unchanged(self):
        # An update-free config serializes without the key at all, so
        # clean envelopes (and the service envelope digests) are
        # byte-identical to the pre-dynamic-input world.
        clean = _config(None).to_dict()
        assert "updates" not in clean
        assert RunConfig.from_dict(clean) == _config(None)
        assert "updates" in _config(STORM).to_dict()

    def test_batch_seed_is_domain_separated(self):
        # Same base, different index -> different streams; and the update
        # tag keeps the stream off every other subsystem's derivation.
        seeds = {batch_seed(5, i) for i in range(8)}
        assert len(seeds) == 8
        assert batch_seed(5, 0) != derive_seed(5, 0)


class TestMaintainedForest:
    @pytest.mark.parametrize("family", ["gnm", "lollipop", "disjoint_cliques"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "kind", ["mix", "tree_delete", "hot_component", "insert_only", "delete_only"]
    )
    def test_differential_after_every_batch(self, family, seed, kind):
        """Maintained == recompute-from-scratch after every single batch."""
        if kind == "insert_only":
            specs = [UpdateBatch(kind="mix", size=10, insert_fraction=1.0)] * 3
        elif kind == "delete_only":
            specs = [UpdateBatch(kind="mix", size=10, insert_fraction=0.0)] * 3
        else:
            specs = [UpdateBatch(kind=kind, size=10, insert_fraction=0.5)] * 3
        state = MaintainedForest(_graph(seed=seed, n=96, family=family))
        for i, spec in enumerate(specs):
            records = generate_batch(state, spec, batch_seed(seed, i))
            assert all(r["op"] in ("insert", "delete") for r in records)
            current = state.as_graph()
            assert state.total_weight == pytest.approx(ref.mst_weight(current))
            assert state.n_components == ref.count_components(current)

    def test_initial_forest_is_kruskal(self):
        g = _graph(seed=3, n=80)
        state = MaintainedForest(g)
        assert state.total_weight == pytest.approx(ref.mst_weight(g))
        assert state.n_components == ref.count_components(g)

    def test_reweight_insert_and_noop_delete(self):
        g = _graph(seed=3, n=40)
        state = MaintainedForest(g)
        (u, v), w = next(iter(state.edges.items()))
        rec = state.apply("insert", u, v, w + 100.0)
        assert rec["applied"] and rec["replaced_weight"] == pytest.approx(w)
        assert state.edges[(u, v)] == pytest.approx(w + 100.0)
        # Deleting an edge that is not there is a recorded no-op.
        rec = state.apply("delete", 0, 39 if (0, 39) not in state.edges else 38)
        if not rec["applied"]:
            assert rec["tree_changed"] is False

    def test_tree_delete_forces_replacement_searches(self):
        state = MaintainedForest(_graph(seed=1, n=96))
        records = generate_batch(state, UpdateBatch(kind="tree_delete", size=8), 99)
        applied = [r for r in records if r["applied"]]
        assert applied and all("search" in r for r in applied)

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(("mix", "tree_delete", "hot_component")),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_then_inverse_restores_state(self, seed, kind):
        state = MaintainedForest(_graph(seed=2, n=64))
        before_edges = dict(state.edges)
        before_weight = state.total_weight
        before_components = state.n_components
        records = generate_batch(state, UpdateBatch(kind=kind, size=12), seed)
        for op, u, v, w in inverse_updates(records):
            state.apply(op, u, v, w)
        assert state.edges == before_edges
        assert state.total_weight == pytest.approx(before_weight)
        assert state.n_components == before_components


class TestDynamicRuns:
    def test_byte_deterministic(self):
        g = _graph()
        a = Session(g, config=_config(STORM)).run("mst_dynamic")
        b = Session(g, config=_config(STORM)).run("mst_dynamic")
        assert a.to_json(include_timing=False) == b.to_json(include_timing=False)

    def test_update_accounting_in_ledger(self):
        g = _graph()
        report = Session(g, config=_config(STORM)).run("mst_dynamic")
        res = report.result
        assert res["batches_applied"] == len(STORM.batches)
        assert res["updates_applied"] > 0
        assert res["update_rounds"] >= len(STORM.batches)
        assert report.ledger["breakdown"]["update"] == res["update_rounds"]
        batch_stats = [s for s in report.phase_stats if "batch" in s]
        assert [s["batch"] for s in batch_stats] == list(range(len(STORM.batches)))
        assert sum(s["rounds"] for s in batch_stats) == res["update_rounds"]
        assert sum(s["bits"] for s in batch_stats) == res["update_bits"]

    def test_maintained_answer_matches_recompute(self):
        g = _graph()
        report = Session(g, config=_config(STORM)).run("mst_dynamic")
        state = MaintainedForest(g)
        base = STORM.base_seed(_config(STORM).seed)
        for i, spec in enumerate(STORM.batches):
            generate_batch(state, spec, batch_seed(base, i))
        current = state.as_graph()
        assert report.result["total_weight"] == pytest.approx(ref.mst_weight(current))
        assert report.result["n_components"] == ref.count_components(current)

    def test_benign_plan_is_invisible(self):
        g = _graph()
        clean = Session(g, config=_config(None)).run("mst_dynamic")
        benign = Session(g, config=_config(UpdatePlan())).run("mst_dynamic")
        assert clean.result == benign.result
        assert clean.ledger == benign.ledger
        assert clean.phase_stats == benign.phase_stats

    def test_clean_run_has_no_update_steps(self):
        g = _graph()
        report = Session(g, config=_config(None)).run("mst_dynamic")
        assert "update" not in report.ledger["breakdown"]
        assert not any("batch" in s for s in report.phase_stats)

    def test_dynamic_build_matches_static_mst(self):
        g = _graph()
        dyn = Session(g, config=_config(None)).run("mst_dynamic")
        static = Session(g, config=_config(None)).run("mst")
        assert dyn.result["total_weight"] == pytest.approx(static.result["total_weight"])
        assert dyn.result["build_rounds"] == static.rounds

    @pytest.mark.parametrize("algorithm", ["mst", "connectivity", "flooding"])
    def test_static_algorithms_reject_updates(self, algorithm):
        g = _graph()
        session = Session(g, config=_config(STORM))
        with pytest.raises(ConfigError):
            session.run(algorithm)
        # A benign plan is fine everywhere.
        Session(g, config=_config(UpdatePlan())).run(algorithm)

    def test_updates_compose_with_faults_and_churn(self):
        g = _graph()
        faults = FaultPlan(drop_prob=0.1)
        churn = ChurnPlan(events=(ChurnEvent(2, "reshuffle"),))
        cfg = _config(STORM, faults=faults, churn=churn)
        hostile = Session(g, config=cfg).run("mst_dynamic")
        clean = Session(g, config=_config(STORM)).run("mst_dynamic")
        # Hostile conditions change costs, never answers (a reshuffled
        # partition may even get cheaper — only the answer is invariant).
        assert hostile.result["total_weight"] == pytest.approx(clean.result["total_weight"])
        assert hostile.result["n_components"] == clean.result["n_components"]
        assert hostile.ledger["epochs"]["n_epochs"] >= 2
        assert "update" in hostile.ledger["breakdown"]

    def test_sweep_roundtrips_updates_through_process_pool(self):
        g = _graph(n=80)
        cfg = _config(STORM)
        sequential = Session(g, config=cfg).sweep("mst_dynamic", seeds=(0, 1))
        pooled = Session(g, config=cfg).sweep("mst_dynamic", seeds=(0, 1), processes=2)
        assert [r.to_json(include_timing=False) for r in sequential] == [
            r.to_json(include_timing=False) for r in pooled
        ]
        assert all(r.result["updates_applied"] > 0 for r in pooled)

    def test_scenarios_registered(self):
        from repro.scenarios.registry import get_scenario, list_scenarios

        names = list_scenarios()
        assert "update_storm" in names and "live_graph" in names
        storm = get_scenario("update_storm")
        assert storm.updates is not None and not storm.updates.is_benign
        live = get_scenario("live_graph")
        assert live.updates is not None and live.faults is not None
        cfg = storm.apply(RunConfig(seed=1, cluster=ClusterConfig(k=K)))
        assert cfg.updates == storm.updates

    def test_scenario_overlay_keeps_caller_updates(self):
        # An update-less scenario must not silently clean a caller's plan.
        from repro.scenarios.registry import get_scenario

        cfg = get_scenario("lollipop").apply(_config(STORM))
        assert cfg.updates == STORM
