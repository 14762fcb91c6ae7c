"""Dynamic inputs: seeded edge-update streams for a maintained structure.

The fault layer attacks the *network* and the churn layer attacks the
*platform*; this module attacks the *input*.  Real deployments of a graph
service do not recompute connectivity/MST from scratch every time an edge
appears or disappears — they maintain the structure and apply **batched
insertions and deletions**, the cluster-computing dynamic-MST setting of
Gilbert & Li ("How fast can you update your MST?", arXiv:2002.06762,
PAPERS.md).  This module makes that workload a typed, deterministic axis
of a run, mirroring :mod:`repro.scenarios.faults` and
:mod:`repro.scenarios.churn`:

* :class:`UpdateBatch` — one seeded batch *generator spec*: a kind
  (``mix`` / ``tree_delete`` / ``hot_component``), a size, and an
  insert/delete mix.  Batches are specs rather than literal edge lists so
  a plan stays O(1)-sized in config provenance while still being able to
  target the maintained state (``tree_delete`` deletes edges of the
  *current* forest — the worst case, forcing a replacement search per
  deletion).
* :class:`UpdatePlan` — the frozen, JSON-round-trippable schedule of
  batches plus the pricing constants (bits per shipped edge record, bits
  per sketch word in a replacement search).  It lives on
  :class:`~repro.runtime.config.RunConfig` and is therefore part of every
  run's provenance; ``repro scenarios show`` dumps it verbatim.

Determinism contract (DESIGN.md §11)
------------------------------------
Batch ``i`` of a run draws every random choice from
``derive_seed(base, _UPDATE_TAG, i)`` where ``base`` is the plan's
``seed`` override or the run's resolved seed.  Generation consults only
the maintained state, which is itself a pure function of (graph, plan,
seed) — so two runs with the same (config, seed) replay the identical
update stream, and the :class:`~repro.runtime.report.RunReport`
byte-determinism contract extends to update runs.  Clean runs
(``updates=None`` or a benign plan) charge nothing and stay
byte-unchanged.

Only the ``mst_dynamic`` registry entry consumes a plan (it maintains
the forest the batches mutate); every other algorithm rejects a
non-benign plan with a :class:`~repro.runtime.config.ConfigError` rather
than silently ignoring it — the same provenance-honesty rule the REP
baseline applies to partition schemes and churn.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.util.rng import derive_seed
from repro.util.validation import ConfigError, check_int, decode, decode_all

__all__ = ["UPDATE_KINDS", "UpdateBatch", "UpdatePlan", "batch_seed"]

#: Accepted batch generator kinds (see :class:`UpdateBatch`).
UPDATE_KINDS = ("mix", "tree_delete", "hot_component")

#: Domain-separation tag for update-stream randomness (keeps batch
#: generation independent of the partition, fault, churn and algorithm
#: streams).
_UPDATE_TAG = 0xED17


def batch_seed(base_seed: int, index: int) -> int:
    """The derived seed batch ``index`` draws from (see module docstring)."""
    return derive_seed(base_seed, _UPDATE_TAG, int(index))


@dataclass(frozen=True)
class UpdateBatch:
    """One seeded batch of edge updates, as a generator spec.

    Attributes
    ----------
    kind:
        One of :data:`UPDATE_KINDS`:

        * ``mix`` — ``size`` independent updates; each is an insertion of
          a fresh random edge with probability ``insert_fraction``, else
          a deletion of a uniformly random *current* edge.
        * ``tree_delete`` — delete ``size`` uniformly random edges of the
          *current maintained forest* (capped at the forest size).  The
          adversarial case: every deletion splits a component and forces
          a replacement search.
        * ``hot_component`` — ``size`` updates confined to the component
          of a seeded hub vertex (inserts draw both endpoints from it,
          deletes only its internal edges), modelling churn concentrated
          on one hot shard of the live graph.
    size:
        Number of updates the batch requests (>= 1).  Generators that
        target existing edges apply fewer when the state runs dry.
    insert_fraction:
        Probability an update is an insertion (``mix`` /
        ``hot_component``; ignored by ``tree_delete``, which must still
        carry a valid value for round-tripping).
    """

    kind: str = "mix"
    size: int = 16
    insert_fraction: float = 0.5

    def validate(self) -> "UpdateBatch":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        if self.kind not in UPDATE_KINDS:
            raise ConfigError(f"kind must be one of {UPDATE_KINDS}, got {self.kind!r}")
        check_int("size", self.size, minimum=1)
        if (
            not isinstance(self.insert_fraction, (int, float))
            or isinstance(self.insert_fraction, bool)
            or not 0.0 <= float(self.insert_fraction) <= 1.0
        ):
            raise ConfigError(
                f"insert_fraction must be in [0, 1], got {self.insert_fraction!r}"
            )
        return self


@dataclass(frozen=True)
class UpdatePlan:
    """Typed schedule of edge-update batches (see module docstring).

    The default plan schedules nothing, so ``RunConfig(updates=UpdatePlan())``
    is equivalent to ``updates=None``: the run charges no update steps and
    its envelope stays byte-identical to a clean run.

    Attributes
    ----------
    batches:
        The batch specs, applied in order; batch ``i`` is charged as the
        bulk step ``update:batch:i``.
    edge_bits:
        Bits shipped per edge record (two vertex ids plus a weight) when
        an update is scattered to its endpoints' home machines — the
        ingest cost of a batch.
    sketch_word_bits:
        Bits per sketch word a machine contributes to a replacement
        search (one word per sketch repetition), pricing the
        Gilbert-Li-style search for the minimum-weight edge crossing a
        split component.
    seed:
        Stream override.  ``None`` (default) derives batch randomness
        from the run's resolved seed; pinning it holds the update stream
        fixed while sweeping run seeds.
    """

    batches: tuple[UpdateBatch, ...] = ()
    edge_bits: int = 96
    sketch_word_bits: int = 64
    seed: int | None = None

    def validate(self) -> "UpdatePlan":
        """Raise :class:`ConfigError` on invalid fields; return self."""
        if not isinstance(self.batches, tuple):
            raise ConfigError(
                f"batches must be a tuple of UpdateBatch, got {type(self.batches).__name__}"
            )
        for batch in self.batches:
            if not isinstance(batch, UpdateBatch):
                raise ConfigError(
                    f"batches must contain UpdateBatch entries, got {type(batch).__name__}"
                )
            batch.validate()
        for name in ("edge_bits", "sketch_word_bits"):
            check_int(name, getattr(self, name), minimum=1)
        check_int("seed", self.seed, optional=True)
        return self

    @property
    def is_benign(self) -> bool:
        """True when the plan schedules no batches."""
        return not self.batches

    def base_seed(self, run_seed: int) -> int:
        """The stream base: the plan's override, else the run's seed."""
        return int(self.seed) if self.seed is not None else int(run_seed)

    def to_dict(self) -> dict[str, Any]:
        """A plain, JSON-serializable dict (batches as a list of dicts)."""
        d = asdict(self)
        d["batches"] = [asdict(b) for b in self.batches]
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UpdatePlan":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        return decode(cls, data, batches=lambda batches: decode_all(UpdateBatch, batches)).validate()
