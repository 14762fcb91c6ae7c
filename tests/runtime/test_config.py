"""Config dataclasses: validation, serialization, and seed precedence."""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partition import PartitionConfig
from repro.runtime import (
    ChurnPlan,
    ClusterConfig,
    ConfigError,
    FaultPlan,
    LogDiamConfig,
    RunConfig,
    SketchConfig,
    UpdatePlan,
    resolve_seed,
)
from repro.runtime.config import DEFAULT_SEED, SECTIONS, resolve_sketch
from repro.scenarios.churn import ChurnEvent
from repro.scenarios.updates import UpdateBatch


class TestSeedPrecedence:
    def test_per_run_seed_wins(self):
        assert resolve_seed(11, 22) == 11

    def test_config_seed_next(self):
        assert resolve_seed(None, 22) == 22

    def test_default_last(self):
        assert resolve_seed(None, None) == DEFAULT_SEED

    def test_zero_is_a_valid_per_run_seed(self):
        # 0 must not fall through to the config seed.
        assert resolve_seed(0, 22) == 0


class TestResolveSketch:
    def test_defaults(self):
        assert resolve_sketch(None, None, None) == (6, "prf")

    def test_config_overrides_defaults(self):
        cfg = SketchConfig(repetitions=3, hash_family="polynomial")
        assert resolve_sketch(cfg, None, None) == (3, "polynomial")

    def test_explicit_kwargs_override_config(self):
        cfg = SketchConfig(repetitions=3, hash_family="polynomial")
        assert resolve_sketch(cfg, 9, None) == (9, "polynomial")
        assert resolve_sketch(cfg, None, "prf") == (3, "prf")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sketch(None, 0, None)
        with pytest.raises(ConfigError):
            resolve_sketch(None, None, "md5")


class TestValidation:
    def test_valid_default_config(self):
        RunConfig().validate()

    @pytest.mark.parametrize(
        "bad",
        [
            RunConfig(sketch=SketchConfig(repetitions=0)),
            RunConfig(sketch=SketchConfig(hash_family="sha")),
            RunConfig(cluster=ClusterConfig(k=1)),
            RunConfig(cluster=ClusterConfig(bandwidth_multiplier=0)),
            RunConfig(cluster=ClusterConfig(bandwidth_bits=0)),
            RunConfig(max_phases=0),
            RunConfig(seed="seven"),  # type: ignore[arg-type]
            RunConfig(params=["not", "a", "dict"]),  # type: ignore[arg-type]
        ],
    )
    def test_invalid_configs_raise(self, bad):
        with pytest.raises(ConfigError):
            bad.validate()

    def test_config_error_is_value_error(self):
        # Callers that catch ValueError keep working.
        assert issubclass(ConfigError, ValueError)


def _churn_event(**kw) -> ChurnPlan:
    return ChurnPlan(events=(ChurnEvent(**{"at_step": 0, "kind": "remove", "machine": 1, **kw}),))


#: Every int field of every config section: section -> (a builder that
#: wraps one keyword into a whole RunConfig, the section's int fields).
_INT_FIELDS = {
    "run": (RunConfig, ("seed", "max_phases")),
    "sketch": (lambda **kw: RunConfig(sketch=SketchConfig(**kw)), ("repetitions",)),
    "cluster": (
        lambda **kw: RunConfig(cluster=ClusterConfig(**kw)),
        ("k", "bandwidth_multiplier", "bandwidth_bits", "partition_seed"),
    ),
    "logdiam": (
        lambda **kw: RunConfig(logdiam=LogDiamConfig(**kw)),
        ("space_bound", "doubling_budget"),
    ),
    "faults": (
        lambda **kw: RunConfig(faults=FaultPlan(**kw)),
        ("max_delay_rounds", "max_stall_rounds", "seed"),
    ),
    "churn": (
        lambda **kw: RunConfig(churn=ChurnPlan(**kw)),
        ("vertex_state_bits", "incidence_state_bits", "seed"),
    ),
    "churn_event": (lambda **kw: RunConfig(churn=_churn_event(**kw)), ("at_step", "machine")),
    "updates": (
        lambda **kw: RunConfig(updates=UpdatePlan(**kw)),
        ("edge_bits", "sketch_word_bits", "seed"),
    ),
    "update_batch": (
        lambda **kw: RunConfig(updates=UpdatePlan(batches=(UpdateBatch(**kw),))),
        ("size",),
    ),
}


class TestIntFields:
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "section, name", [(s, f) for s, (_, names) in _INT_FIELDS.items() for f in names]
    )
    def test_bools_rejected(self, section, name, value):
        # Python counts a bool as an int; a config must not.
        build = _INT_FIELDS[section][0]
        with pytest.raises(ConfigError, match=name):
            build(**{name: value}).validate()

    @pytest.mark.parametrize("seed", ["abc", 1.5])
    def test_partition_seed_checked(self, seed):
        with pytest.raises(ConfigError, match="partition_seed"):
            RunConfig(cluster=ClusterConfig(partition_seed=seed)).validate()

    def test_charge_shared_randomness_must_be_bool(self):
        with pytest.raises(ConfigError, match="charge_shared_randomness"):
            RunConfig(charge_shared_randomness="no").validate()  # type: ignore[arg-type]


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = RunConfig(
            seed=5,
            sketch=SketchConfig(repetitions=4, hash_family="polynomial"),
            cluster=ClusterConfig(k=16, bandwidth_multiplier=32, partition_seed=9),
            max_phases=20,
            charge_shared_randomness=False,
            params={"output": "strict"},
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_validates(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"cluster": {"k": 1}})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="sketchy"):
            RunConfig.from_dict({"sketchy": True})

    def test_with_overrides(self):
        cfg = RunConfig(seed=1)
        assert cfg.with_overrides(seed=2).seed == 2
        assert cfg.seed == 1  # frozen original untouched

    @pytest.mark.parametrize(
        "decode, data, match",
        [
            (FaultPlan.from_dict, {"x": 1}, "'x'"),
            (RunConfig.from_dict, {"cluster": 3}, "ClusterConfig"),
            (RunConfig.from_dict, {"sketch": None}, "SketchConfig"),
            (ChurnPlan.from_dict, {"events": ["x"]}, "ChurnEvent"),
            (ChurnPlan.from_dict, {"events": [{"kind": "reshuffle"}]}, "at_step"),
            (RunConfig.from_dict, {"churn": {"events": 3}}, "ChurnEvent"),
            (RunConfig.from_dict, {"updates": {"batches": [{"size": 0}]}}, "size"),
            (UpdatePlan.from_dict, [], "UpdatePlan"),
            (LogDiamConfig.from_dict, {"space_bound": 0}, "space_bound"),
        ],
    )
    def test_decoders_raise_config_error(self, decode, data, match):
        with pytest.raises(ConfigError, match=match):
            decode(data)

    def test_null_sections_decode_as_unset(self):
        assert RunConfig.from_dict({"faults": None, "logdiam": None}) == RunConfig()


#: Every decoder reachable from untrusted JSON (the service, sweep workers).
_DECODERS = [
    RunConfig.from_dict,
    PartitionConfig.from_dict,
    *(kind.from_dict for kind in SECTIONS.values()),
]

#: Real field names, mixed into the fuzzed keys so some inputs decode deep.
_FIELD_NAMES = sorted(
    {
        f.name
        for cls in (RunConfig, SketchConfig, ClusterConfig, PartitionConfig, ChurnEvent,
                    UpdateBatch, *SECTIONS.values())
        for f in fields(cls)
    }
)

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 64)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(["reshuffle", "remove", "mix", "prf", "uniform"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=4), children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(decode=st.sampled_from(_DECODERS), data=_JSON)
def test_decoders_fuzz(decode, data):
    # Any JSON value decodes to a validated instance or fails with
    # ConfigError; it never raises anything else.
    try:
        decode(data)
    except ConfigError:
        pass
