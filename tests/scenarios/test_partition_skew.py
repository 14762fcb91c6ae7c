"""Unit tests for the partition-skew layer and its runtime plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.partition import (
    PARTITION_SCHEMES,
    PartitionConfig,
    adversarial_heavy_partition,
    build_partition,
    locality_vertex_partition,
    powerlaw_vertex_partition,
    random_vertex_partition,
)
from repro.graphs import generators
from repro.runtime import ClusterConfig, RunConfig, Session


class TestPartitionConfig:
    def test_defaults_uniform(self):
        assert PartitionConfig().validate().scheme == "uniform"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "zipf"},
            {"alpha": -1.0},
            {"noise": 1.5},
            {"heavy_fraction": 0.0},
            {"heavy_fraction": 1.5},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PartitionConfig(**kwargs).validate()

    def test_dict_round_trip(self):
        cfg = PartitionConfig(scheme="powerlaw", alpha=2.0)
        assert PartitionConfig.from_dict(cfg.to_dict()) == cfg

    def test_run_config_round_trip_carries_partition_and_faults(self):
        from repro.runtime.config import FaultPlan

        cfg = RunConfig(
            cluster=ClusterConfig(k=4, partition=PartitionConfig(scheme="locality")),
            faults=FaultPlan(drop_prob=0.1),
        ).validate()
        back = RunConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert back.cluster.partition.scheme == "locality"
        assert back.faults == FaultPlan(drop_prob=0.1)

    def test_run_config_without_faults_round_trips(self):
        cfg = RunConfig(cluster=ClusterConfig(k=4)).validate()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestSchemes:
    N, K, SEED = 600, 4, 11

    def test_every_scheme_is_a_valid_partition(self):
        g = generators.gnm_random(self.N, 3 * self.N, seed=1)
        for scheme in PARTITION_SCHEMES:
            part = build_partition(g, self.K, self.SEED, PartitionConfig(scheme=scheme))
            assert part.n == self.N and part.k == self.K
            assert part.home.min() >= 0 and part.home.max() < self.K
            assert int(part.counts().sum()) == self.N

    def test_uniform_matches_legacy_rvp(self):
        g = generators.gnm_random(self.N, 3 * self.N, seed=1)
        part = build_partition(g, self.K, self.SEED, None)
        legacy = random_vertex_partition(self.N, self.K, self.SEED)
        assert np.array_equal(part.home, legacy.home)

    def test_schemes_are_deterministic(self):
        g = generators.gnm_random(self.N, 3 * self.N, seed=1)
        for scheme in PARTITION_SCHEMES:
            cfg = PartitionConfig(scheme=scheme)
            a = build_partition(g, self.K, self.SEED, cfg)
            b = build_partition(g, self.K, self.SEED, cfg)
            assert np.array_equal(a.home, b.home)

    def test_powerlaw_concentrates_on_low_machines(self):
        part = powerlaw_vertex_partition(self.N, self.K, self.SEED, alpha=2.0)
        counts = part.counts()
        assert counts[0] > counts[-1] * 2
        assert int(counts.argmax()) == 0

    def test_powerlaw_alpha_zero_is_balanced(self):
        counts = powerlaw_vertex_partition(4000, 4, 0, alpha=0.0).counts()
        assert counts.max() < 1.2 * counts.mean()

    def test_locality_blocks_contiguous_without_noise(self):
        part = locality_vertex_partition(self.N, self.K, self.SEED, noise=0.0)
        # Zero noise: home is the exact block map, monotone in vertex id.
        assert np.all(np.diff(part.home) >= 0)
        assert np.array_equal(np.unique(part.home), np.arange(self.K))

    def test_locality_noise_perturbs_a_fraction(self):
        clean = locality_vertex_partition(self.N, self.K, self.SEED, noise=0.0)
        noisy = locality_vertex_partition(self.N, self.K, self.SEED, noise=0.2)
        moved = int((clean.home != noisy.home).sum())
        assert 0 < moved < self.N // 2

    def test_adversarial_heavy_pins_top_degrees_to_machine_zero(self):
        g = generators.star_of_paths(8, 40)  # hub 0 dominates degree
        part = adversarial_heavy_partition(g.degree(), self.K, self.SEED, heavy_fraction=0.02)
        n_heavy = int(np.ceil(0.02 * g.n))
        top = np.lexsort((np.arange(g.n), -np.asarray(g.degree())))[:n_heavy]
        assert np.all(part.home[top] == 0)

    def test_heavy_fraction_one_puts_everything_on_zero(self):
        g = generators.gnm_random(50, 120, seed=2)
        part = adversarial_heavy_partition(g.degree(), 4, 0, heavy_fraction=1.0)
        assert np.all(part.home == 0)


class TestSessionPlumbing:
    def test_cache_key_distinguishes_schemes(self):
        g = generators.gnm_random(300, 900, seed=5)
        session = Session(g, config=RunConfig(seed=1, cluster=ClusterConfig(k=4)))
        uniform = session.cluster_for(g, ClusterConfig(k=4), seed=1)
        skewed = session.cluster_for(
            g, ClusterConfig(k=4, partition=PartitionConfig(scheme="powerlaw")), seed=1
        )
        assert uniform is not skewed
        assert not np.array_equal(uniform.partition.home, skewed.partition.home)
        again = session.cluster_for(
            g, ClusterConfig(k=4, partition=PartitionConfig(scheme="powerlaw")), seed=1
        )
        assert again is skewed  # cached

    def test_report_records_partition_scheme(self):
        g = generators.gnm_random(200, 600, seed=5)
        config = RunConfig(
            seed=1, cluster=ClusterConfig(k=4, partition=PartitionConfig(scheme="locality"))
        )
        report = Session(g, config=config).run("connectivity")
        assert report.config["cluster"]["partition"]["scheme"] == "locality"

    def test_sweep_worker_round_trips_partition(self):
        # The process-pool path rebuilds configs from dicts; the partition
        # section must survive that round trip.
        from repro.runtime.session import _sweep_worker

        g = generators.gnm_random(150, 450, seed=5)
        config = RunConfig(
            seed=1, cluster=ClusterConfig(k=4, partition=PartitionConfig(scheme="powerlaw"))
        )
        report = _sweep_worker((g, "connectivity", config.to_dict(), 1))
        assert report.config["cluster"]["partition"]["scheme"] == "powerlaw"
