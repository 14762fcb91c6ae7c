"""Tests for repro.util.rng: determinism, mixing, keyed lookups."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import (
    SeedStream,
    derive_seed,
    splitmix64,
    splitmix64_scalar,
    uniform_from_u64,
)


class TestSplitMix64:
    def test_scalar_matches_vector(self):
        xs = np.array([0, 1, 2, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
        vec = splitmix64(xs)
        for x, v in zip(xs, vec):
            assert splitmix64_scalar(int(x)) == int(v)

    def test_distinct_inputs_distinct_outputs(self):
        xs = np.arange(100_000, dtype=np.uint64)
        out = splitmix64(xs)
        assert np.unique(out).size == xs.size

    def test_bit_balance(self):
        out = splitmix64(np.arange(50_000, dtype=np.uint64))
        # Each of the 64 bits should be ~50% set.
        for shift in (0, 17, 33, 63):
            frac = float(((out >> np.uint64(shift)) & np.uint64(1)).mean())
            assert 0.47 < frac < 0.53

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50)
    def test_scalar_in_range(self, x):
        y = splitmix64_scalar(x)
        assert 0 <= y < 2**64


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_length_sensitive(self):
        assert derive_seed(1) != derive_seed(1, 0)

    def test_spread(self):
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestUniform:
    def test_range(self):
        u = uniform_from_u64(splitmix64(np.arange(10_000, dtype=np.uint64)))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_mean_near_half(self):
        u = uniform_from_u64(splitmix64(np.arange(100_000, dtype=np.uint64)))
        assert abs(float(u.mean()) - 0.5) < 0.01


class TestSeedStream:
    def test_same_seed_same_stream(self):
        a, b = SeedStream(42), SeedStream(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_keyed_independent_of_position(self):
        a = SeedStream(42)
        before = a.keyed_u64(np.arange(5, dtype=np.uint64)).copy()
        a.next_u64()
        after = a.keyed_u64(np.arange(5, dtype=np.uint64))
        assert np.array_equal(before, after)

    def test_keyed_choice_range_and_balance(self):
        s = SeedStream(9)
        c = s.keyed_choice(np.arange(80_000, dtype=np.uint64), 8)
        assert c.min() >= 0 and c.max() < 8
        counts = np.bincount(c, minlength=8)
        assert counts.min() > 80_000 / 8 * 0.9

    def test_keyed_choice_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SeedStream(1).keyed_choice(np.arange(3, dtype=np.uint64), 0)

    def test_keyed_choice_deterministic_across_instances(self):
        keys = np.arange(100, dtype=np.uint64)
        assert np.array_equal(
            SeedStream(5).keyed_choice(keys, 7), SeedStream(5).keyed_choice(keys, 7)
        )

    def test_nearby_seeds_decorrelated(self):
        # Streams seeded base+i must not re-assign the same keys to the
        # same buckets across i (the hot-spot hazard the seed mixing in
        # __init__ prevents).
        keys = np.arange(64, dtype=np.uint64)
        k_machines = 16
        cumulative = np.zeros(k_machines, dtype=np.int64)
        for it in range(16):
            choice = SeedStream(1000 + it).keyed_choice(keys, k_machines)
            np.add.at(cumulative, choice, 1)
        ideal = 64 * 16 / k_machines
        assert cumulative.max() < 1.6 * ideal
