"""The corpus generator contract, pinned over *every* registered family.

This is the ISSUE-9 headline harness: the pisek-style contract
(SNIPPETS.md Snippet 1) says a generator must self-describe, be
deterministic, and respect its seed — and :mod:`repro.corpus.families`
promises all three for every family in the repository, including the
plain random families that previously had no registry entry enforcing
any of it.  Four guarantees, each parametrized over the full registry:

* byte-determinism — same ``(params, seed)`` produce byte-identical edge
  arrays across two independent generator invocations;
* the seed contract — seeded families produce distinct graphs across
  seeds, unseeded ones normalize every seed to 0 *by construction*;
* listing round-trip — ``describe()`` output parses back through
  :func:`~repro.corpus.families.parse_spec` to the same family and the
  same normalized params, so ``repro corpus list`` speaks the exact
  language ``repro corpus gen`` accepts;
* consumer equivalence — a memory-mapped corpus load runs
  ``connectivity``/``mst`` to a :class:`RunReport` byte-identical
  (``include_timing=False``) to the in-memory build of the same family.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.corpus.families import (
    CORPUS_FAMILIES,
    CorpusFamily,
    get_family,
    parse_spec,
    sizeable_families,
    sized_graph,
)
from repro.corpus.manager import CorpusManager
from repro.runtime import ClusterConfig, RunConfig, Session

FAMILIES = tuple(sorted(CORPUS_FAMILIES))
SEEDED = tuple(name for name in FAMILIES if CORPUS_FAMILIES[name].seeded)
UNSEEDED = tuple(name for name in FAMILIES if not CORPUS_FAMILIES[name].seeded)
#: The scenario engine's input axis: shapes scaled from one requested n.
WORST_CASE = ("barbell", "disjoint_cliques", "expander_bridge", "lollipop", "star_of_paths")


def _edge_bytes(g) -> tuple[bytes, bytes, bytes, int]:
    return g.edges_u.tobytes(), g.edges_v.tobytes(), g.weights.tobytes(), g.n


class TestRegistryShape:
    def test_registry_keys_match_entry_names(self):
        for name, fam in CORPUS_FAMILIES.items():
            assert isinstance(fam, CorpusFamily)
            assert fam.name == name
            assert fam.summary, f"{name} needs a human-readable summary"

    def test_every_generator_module_family_is_registered(self):
        # The satellite fix: the random families must sit under the same
        # registry contract as the worst-case ones.  Spot the full set so
        # a new generator cannot land without a corpus entry.
        expected = {
            "path", "cycle", "star", "complete", "tree", "grid",
            "gnm", "gnp", "geometric", "powerlaw", "random_tree",
            "planted_components", "planted_cut", "diameter2", "lower_bound",
        } | set(WORST_CASE)
        assert set(CORPUS_FAMILIES) == expected

    def test_random_families_are_seeded(self):
        for name in ("gnm", "gnp", "geometric", "powerlaw", "random_tree",
                     "planted_components", "planted_cut", "diameter2"):
            assert CORPUS_FAMILIES[name].seeded, f"{name} must declare seeded=True"

    def test_every_family_declares_weighted(self):
        for name in FAMILIES:
            params = {p.name for p in CORPUS_FAMILIES[name].params}
            assert "weighted" in params, f"{name} lost the implicit weighted param"

    def test_unknown_family_lists_available_names(self):
        with pytest.raises(KeyError, match="gnm"):
            get_family("moebius")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_default_grid_cells_normalize(self, family):
        fam = CORPUS_FAMILIES[family]
        for cell in fam.grid or ({},):
            normalized = fam.normalize(cell)
            assert set(normalized) == {p.name for p in fam.params}


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_inputs_same_bytes_across_instances(self, family, seed):
        fam = CORPUS_FAMILIES[family]
        a = fam.generate(None, seed)
        b = fam.generate(None, seed)
        assert _edge_bytes(a) == _edge_bytes(b)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weighted_variant_is_deterministic(self, family):
        fam = CORPUS_FAMILIES[family]
        a = fam.generate({"weighted": True}, 3)
        b = fam.generate({"weighted": True}, 3)
        assert a.weighted and b.weighted
        assert a.weights.tobytes() == b.weights.tobytes()


class TestSeedContract:
    @pytest.mark.parametrize("family", UNSEEDED)
    def test_unseeded_families_normalize_every_seed_to_zero(self, family):
        fam = CORPUS_FAMILIES[family]
        baseline = _edge_bytes(fam.generate(None, 0))
        for seed in (1, 9, 12345):
            assert fam.normalize_seed(seed) == 0
            assert _edge_bytes(fam.generate(None, seed)) == baseline

    @pytest.mark.parametrize("family", SEEDED)
    def test_seeded_families_consume_the_seed(self, family):
        fam = CORPUS_FAMILIES[family]
        a = fam.generate(None, 0)
        b = fam.generate(None, 9)
        assert fam.normalize_seed(9) == 9
        assert _edge_bytes(a) != _edge_bytes(b), (
            f"{family} declares seeded=True but ignored the seed"
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unknown_params_are_rejected(self, family):
        with pytest.raises(ValueError, match="no parameter"):
            CORPUS_FAMILIES[family].normalize({"bogus_knob": 1})


class TestListingRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_describe_round_trips_through_parse_spec(self, family):
        fam = CORPUS_FAMILIES[family]
        parsed_fam, parsed_params = parse_spec(fam.describe())
        assert parsed_fam is fam
        assert parsed_params == fam.normalize({})

    @pytest.mark.parametrize("family", FAMILIES)
    def test_grid_cells_round_trip(self, family):
        fam = CORPUS_FAMILIES[family]
        for cell in fam.grid or ({},):
            line = fam.describe(cell)
            parsed_fam, parsed_params = parse_spec(line)
            assert parsed_fam is fam
            assert parsed_params == fam.normalize(cell)

    def test_seeded_flag_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="seeded"):
            parse_spec("path n=64 seeded=true")

    def test_malformed_spec_items_are_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_spec("gnm n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_spec("gnm n=8 n=9")
        with pytest.raises(ValueError, match="empty"):
            parse_spec("   ")


class TestConsumerEquivalence:
    """Memory-mapped loads are indistinguishable from in-memory builds."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mmap_graph_matches_in_memory_arrays(self, family, tmp_path):
        fam = CORPUS_FAMILIES[family]
        manager = CorpusManager(tmp_path)
        entry = manager.generate(fam, None, 5)
        mapped = manager.load(entry.entry_id)
        assert isinstance(mapped.edges_u, np.memmap)
        mem = fam.generate(None, 5)
        assert mapped.n == mem.n and mapped.m == mem.m
        for attr in ("indptr", "indices", "edge_ids", "edges_u", "edges_v", "weights"):
            assert getattr(mapped, attr).tobytes() == getattr(mem, attr).tobytes(), attr
        assert mapped.weighted == mem.weighted

    @pytest.mark.parametrize(
        ("family", "params", "algorithm"),
        [
            ("gnm", {"n": 96, "m": 288}, "connectivity"),
            ("gnm", {"n": 96, "m": 288, "weighted": True}, "mst"),
            ("expander_bridge", {"n": 80}, "connectivity"),
            ("planted_components", {"n": 90, "n_components": 3}, "connectivity"),
            ("lower_bound", {"bits": 24}, "connectivity"),
        ],
    )
    def test_run_report_byte_identical(self, family, params, algorithm, tmp_path):
        fam = CORPUS_FAMILIES[family]
        manager = CorpusManager(tmp_path)
        entry = manager.generate(fam, params, 2)
        config = RunConfig(seed=4, cluster=ClusterConfig(k=4))

        with Session(config=config) as session:
            served = session.run(algorithm, manager.load(entry.entry_id))
        with Session(config=config) as session:
            reference = session.run(algorithm, fam.generate(params, 2))

        a = json.dumps(served.to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(reference.to_dict(include_timing=False), sort_keys=True)
        assert a == b


class TestSizedGraph:
    """:func:`sized_graph` scales each family from one requested n."""

    #: Requested sizes; families round to their own granularity (clique
    #: splits, path arm counts) but must track the request monotonically.
    LADDER = (12, 24, 40, 60, 100, 137, 200)

    def test_every_family_but_lower_bound_is_sizeable(self):
        assert set(sizeable_families()) == set(FAMILIES) - {"lower_bound"}
        with pytest.raises(ValueError, match="size rule"):
            sized_graph("lower_bound", 64)

    def test_only_expander_bridge_is_seeded_among_worst_case_families(self):
        # The contract the differential suites encode: only the expander
        # construction draws randomness.  Adding a seeded family is fine,
        # but must be a conscious change here too.
        assert {f for f in WORST_CASE if CORPUS_FAMILIES[f].seeded} == {"expander_bridge"}

    @pytest.mark.parametrize("family", WORST_CASE)
    def test_vertex_count_monotone_and_near_request(self, family):
        sizes = [sized_graph(family, n, 3).n for n in self.LADDER]
        assert all(a <= b for a, b in zip(sizes, sizes[1:])), (
            f"{family} vertex counts not monotone over {self.LADDER}: {sizes}"
        )
        for n, got in zip(self.LADDER, sizes):
            assert n // 2 <= got <= n, f"{family} at requested n={n} produced {got} vertices"

    @pytest.mark.parametrize("family", WORST_CASE)
    def test_edges_are_valid(self, family):
        g = sized_graph(family, 60, 1)
        if g.edges_u.size:
            assert int(g.edges_u.min()) >= 0 and int(g.edges_v.min()) >= 0
            assert int(g.edges_u.max()) < g.n and int(g.edges_v.max()) < g.n
            assert not np.any(g.edges_u == g.edges_v), f"{family} has self-loops"

    def test_weights_use_the_raw_seed(self):
        # An unseeded shape still gets per-seed weights from sized_graph,
        # while the corpus ``weighted`` param keeps the normalized seed.
        a, b = sized_graph("path", 40, 1, weighted=True), sized_graph("path", 40, 2, weighted=True)
        assert a.edges_u.tobytes() == b.edges_u.tobytes()
        assert a.weights.tobytes() != b.weights.tobytes()
        fam = CORPUS_FAMILIES["path"]
        assert _edge_bytes(fam.generate({"n": 40, "weighted": True}, 1)) == _edge_bytes(
            fam.generate({"n": 40, "weighted": True}, 2)
        )

    def test_params_override_the_size_rule(self):
        assert sized_graph("gnm", 50, 0).m == 150
        assert sized_graph("gnm", 50, 0, params={"m": 70}).m == 70
        with pytest.raises(ValueError, match="no parameter"):
            sized_graph("path", 50, 0, params={"m": 70})
