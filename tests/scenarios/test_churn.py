"""Unit tests for the dynamic adversary: ChurnPlan, EpochModel, the runtime path.

The contracts pinned here (DESIGN.md §8):

* plans are typed, validated and JSON-round-trippable (standalone and
  nested in :class:`~repro.runtime.config.RunConfig`, including through
  the process-pool sweep path);
* churned runs are byte-deterministic, answers never drift, migration is
  charged as real bandwidth, and per-epoch accounting is conserved;
* clean runs carry no ``epochs`` section — the envelope of a
  ``churn=None`` run is byte-identical to the pre-epoch world.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import generators
from repro.cluster.cluster import KMachineCluster
from repro.cluster.partition import PartitionConfig, build_partition
from repro.graphs import reference as ref
from repro.runtime import ChurnPlan, ClusterConfig, FaultPlan, RunConfig, Session, run_algorithm
from repro.runtime.config import ConfigError
from repro.scenarios.churn import ChurnEvent, EpochModel

K = 4

#: A schedule exercising all three event kinds, valid for any k >= 3.
STORM = ChurnPlan(
    events=(
        ChurnEvent(2, "remove", machine=1),
        ChurnEvent(5, "reshuffle"),
        ChurnEvent(8, "add", machine=1),
    )
)


def _graph(seed: int = 5, n: int = 120):
    return generators.gnm_random(n, 3 * n, seed=seed)


def _config(churn, seed: int = 5, **kwargs) -> RunConfig:
    return RunConfig(seed=seed, cluster=ClusterConfig(k=K), churn=churn, **kwargs)


class TestChurnPlan:
    def test_roundtrip(self):
        plan = STORM
        again = ChurnPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again == plan

    def test_benign(self):
        assert ChurnPlan().is_benign
        assert not STORM.is_benign

    @pytest.mark.parametrize(
        "event",
        [
            ChurnEvent(-1, "reshuffle"),
            ChurnEvent(0, "migrate"),
            ChurnEvent(0, "reshuffle", machine=2),
            ChurnEvent(0, "remove"),
            ChurnEvent(0, "add", machine=-2),
        ],
    )
    def test_bad_events_rejected(self, event):
        with pytest.raises(ConfigError):
            ChurnPlan(events=(event,)).validate()

    @pytest.mark.parametrize("field", ["vertex_state_bits", "incidence_state_bits"])
    def test_state_bits_must_be_positive(self, field):
        with pytest.raises(ConfigError):
            ChurnPlan(**{field: 0}).validate()

    def test_nested_config_roundtrip(self):
        cfg = _config(STORM)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.churn == STORM

    def test_config_validates_plan(self):
        bad = ChurnPlan(events=(ChurnEvent(0, "nonsense"),))
        with pytest.raises(ConfigError):
            _config(bad).validate()


class TestEpochModel:
    def _model(self, plan=STORM, seed=5, scheme="uniform", n=120):
        g = _graph(seed, n)
        partition = build_partition(g, K, seed, PartitionConfig(scheme=scheme))
        return g, EpochModel(plan, g, partition, PartitionConfig(scheme=scheme))

    def test_schedule_validation_needs_active_machines(self):
        g = _graph()
        partition = build_partition(g, 2, 0, PartitionConfig())
        plan = ChurnPlan(events=(ChurnEvent(0, "remove", machine=1),))
        with pytest.raises(ConfigError, match="at least 2 active"):
            EpochModel(plan, g, partition, PartitionConfig())

    def test_schedule_validation_machine_bounds(self):
        g = _graph()
        partition = build_partition(g, K, 0, PartitionConfig())
        plan = ChurnPlan(events=(ChurnEvent(0, "remove", machine=K),))
        with pytest.raises(ConfigError, match="k="):
            EpochModel(plan, g, partition, PartitionConfig())

    def test_double_remove_and_add_active_rejected(self):
        g = _graph()
        partition = build_partition(g, K, 0, PartitionConfig())
        with pytest.raises(ConfigError, match="removed twice"):
            EpochModel(
                ChurnPlan(
                    events=(
                        ChurnEvent(0, "remove", machine=1),
                        ChurnEvent(1, "remove", machine=1),
                    )
                ),
                g,
                partition,
                PartitionConfig(),
            )
        with pytest.raises(ConfigError, match="while active"):
            EpochModel(
                ChurnPlan(events=(ChurnEvent(0, "add", machine=1),)),
                g,
                partition,
                PartitionConfig(),
            )

    def test_remove_migrates_exactly_the_departed_shard(self):
        plan = ChurnPlan(events=(ChurnEvent(0, "remove", machine=1),))
        g, model = self._model(plan)
        home0 = model.home.copy()
        charged = []
        model.begin_step(lambda label, load, msgs: charged.append((label, load.copy())) or 1)
        assert model.epoch == 1
        label, load = charged[0]
        assert label == "epoch:migrate:remove"
        # Everything that moved came off machine 1, and nothing lands on it.
        moved = np.nonzero(model.home != home0)[0]
        assert moved.size == int((home0 == 1).sum())
        assert (home0[moved] == 1).all()
        assert not (model.home == 1).any()
        assert load[1].sum() == load.sum() and load[:, 1].sum() == 0

    def test_epoch_hash_is_shared_and_epoch_indexed(self):
        # Epoch e's reshuffle is recomputable from (partition seed, e)
        # alone — the model's shared-hash addressing survives churn.
        plan = ChurnPlan(events=(ChurnEvent(0, "reshuffle"),))
        g, model = self._model(plan)
        model.begin_step(lambda *a: 0)
        expected = build_partition(g, K, model.partition.seed, PartitionConfig(), epoch=1)
        assert (model.home == expected.home).all()

    def test_remap_identity_until_first_event(self):
        g, model = self._model()
        load = np.arange(K * K, dtype=np.int64).reshape(K, K)
        assert model.remap(load) is load

    def test_remap_conserves_total_and_clears_removed(self):
        plan = ChurnPlan(events=(ChurnEvent(0, "remove", machine=1),))
        g, model = self._model(plan)
        model.begin_step(lambda *a: 0)
        load = np.full((K, K), 4096, dtype=np.int64)
        np.fill_diagonal(load, 0)
        routed = model.remap(load)
        # Ceil rounding may only add a few bits, never drop traffic.
        assert load.sum() <= routed.sum() <= load.sum() + K * K
        assert routed[1].sum() == 0 and routed[:, 1].sum() == 0

    def test_totals_sections_are_consistent(self):
        g = _graph()
        report = Session(g, config=_config(STORM)).run("connectivity")
        epochs = report.ledger["epochs"]
        assert epochs["n_epochs"] == 4
        assert epochs["events_fired"] == epochs["events_scheduled"] == 3
        assert epochs["migration_rounds"] == sum(
            e.get("migration_rounds", 0) for e in epochs["per_epoch"]
        )
        assert epochs["migration_bits"] == sum(
            e.get("migration_bits", 0) for e in epochs["per_epoch"]
        )
        # Epoch rounds partition the run's rounds; epoch bits its bits.
        assert sum(e["rounds"] for e in epochs["per_epoch"]) == report.rounds
        assert sum(e["total_bits"] for e in epochs["per_epoch"]) == report.total_bits

    def test_step_records_carry_epochs(self):
        g = _graph()
        cluster = KMachineCluster.create(g, K, 5)
        model = EpochModel(STORM, g, cluster.partition, PartitionConfig())
        cluster.ledger.attach_epochs(model)
        from repro.runtime import get_algorithm

        get_algorithm("connectivity").runner(cluster, _config(None), 5)
        epochs_seen = {s.epoch for s in cluster.ledger.steps}
        assert epochs_seen == {0, 1, 2, 3}
        migrations = [s for s in cluster.ledger.steps if s.label.startswith("epoch:migrate")]
        assert [s.label for s in migrations] == [
            "epoch:migrate:remove",
            "epoch:migrate:reshuffle",
            "epoch:migrate:add",
        ]
        # The migration step opens its epoch.
        assert [s.epoch for s in migrations] == [1, 2, 3]


class TestChurnedRuns:
    def test_byte_deterministic(self):
        g = _graph()
        cfg = _config(STORM)
        first = Session(g, config=cfg).run("connectivity")
        second = Session(g, config=cfg).run("connectivity")
        assert first.to_json(include_timing=False) == second.to_json(include_timing=False)

    def test_clean_runs_have_no_epochs_section(self):
        g = _graph()
        report = Session(g, config=_config(None)).run("connectivity")
        assert "epochs" not in report.ledger

    def test_benign_plan_records_single_epoch(self):
        g = _graph()
        report = Session(g, config=_config(ChurnPlan())).run("connectivity")
        epochs = report.ledger["epochs"]
        assert epochs["n_epochs"] == 1
        assert epochs["migration_bits"] == 0
        # ... and everything else matches the clean run exactly.
        clean = Session(g, config=_config(None)).run("connectivity")
        assert report.result == clean.result
        assert report.rounds == clean.rounds

    def test_answers_never_drift(self):
        g = _graph()
        clean = Session(g, config=_config(None)).run("connectivity")
        churned = Session(g, config=_config(STORM)).run("connectivity")
        assert churned.result["labels"] == clean.result["labels"]
        assert churned.result["n_components"] == ref.count_components(g)

    def test_migration_charged_as_real_bandwidth(self):
        g = _graph()
        report = Session(g, config=_config(STORM)).run("connectivity")
        epochs = report.ledger["epochs"]
        assert epochs["migrated_vertices"] > 0
        assert epochs["migration_bits"] > 0
        assert epochs["migration_rounds"] > 0
        assert report.ledger["breakdown"]["epoch"] == epochs["migration_rounds"]

    def test_churn_composes_with_faults(self):
        from repro.runtime.config import FaultPlan

        g = _graph()
        cfg = _config(STORM, faults=FaultPlan(drop_prob=0.2))
        report = Session(g, config=cfg).run("connectivity")
        assert "faults" in report.ledger and "epochs" in report.ledger
        assert report.result["n_components"] == ref.count_components(g)
        again = Session(g, config=cfg).run("connectivity")
        assert report.to_json(include_timing=False) == again.to_json(include_timing=False)

    def test_subcluster_algorithms_inherit_the_epoch_model(self):
        # min-cut charges its connectivity tests to derived sub-clusters
        # (with_graph); the epoch model must follow them there.
        g = generators.gnm_random(48, 144, seed=2)
        cfg = RunConfig(seed=2, cluster=ClusterConfig(k=K), churn=STORM)
        report = Session(g, config=cfg).run("mincut")
        assert report.ledger["epochs"]["n_epochs"] == 4

    def test_rep_rejects_churn(self):
        g = generators.with_unique_weights(_graph(), seed=5)
        with pytest.raises(ConfigError, match="churn"):
            Session(g, config=_config(STORM)).run("rep")

    def test_rep_accepts_benign_plan(self):
        g = generators.with_unique_weights(_graph(), seed=5)
        report = Session(g, config=_config(ChurnPlan())).run("rep")
        assert report.result["n_components"] == ref.count_components(g)

    def test_invalid_schedule_for_k_raises_config_error(self):
        # Valid plan shape, but the run's k cannot honor it.
        g = _graph()
        plan = ChurnPlan(events=(ChurnEvent(0, "remove", machine=K + 3),))
        with pytest.raises(ConfigError, match="k="):
            Session(g, config=_config(plan)).run("connectivity")

    def test_rejected_schedule_leaves_the_cluster_clean(self):
        # The epoch model checks the schedule before any model attaches,
        # so the rejected run leaves no fault model on the caller's
        # cluster for its next run to inherit.
        cluster = KMachineCluster.create(_graph(), k=K, seed=5)
        plan = ChurnPlan(events=(ChurnEvent(0, "remove", machine=K + 3),))
        with pytest.raises(ConfigError, match="k="):
            run_algorithm("connectivity", cluster, _config(plan, faults=FaultPlan(drop_prob=0.1)))
        assert cluster.ledger.fault_model is None and cluster.ledger.epoch_model is None

    def test_sweep_roundtrips_churn_through_process_pool(self):
        g = _graph(n=80)
        cfg = _config(STORM)
        session = Session(g, config=cfg)
        sequential = session.sweep("connectivity", seeds=(0, 1))
        pooled = Session(g, config=cfg).sweep("connectivity", seeds=(0, 1), processes=2)
        assert [r.to_json(include_timing=False) for r in sequential] == [
            r.to_json(include_timing=False) for r in pooled
        ]
        assert all("epochs" in r.ledger for r in pooled)

    def test_scenarios_registered(self):
        from repro.scenarios.registry import get_scenario, list_scenarios

        names = list_scenarios()
        assert "churn_storm" in names and "rebalance_midrun" in names
        storm = get_scenario("churn_storm")
        assert storm.churn is not None and storm.faults is not None
        cfg = storm.apply(RunConfig(seed=1, cluster=ClusterConfig(k=K)))
        assert cfg.churn == storm.churn

    def test_scenario_overlay_keeps_caller_churn(self):
        # A churn-less scenario must not silently clean a caller's plan.
        from repro.scenarios.registry import get_scenario

        cfg = get_scenario("lollipop").apply(_config(STORM))
        assert cfg.churn == STORM
