"""Wire protocol of the graph service: framed JSON + the typed run request.

Framing is deliberately minimal (and stdlib-only): every message in either
direction is one *frame* — a 4-byte big-endian unsigned length followed by
that many bytes of UTF-8 JSON encoding a single object.  Requests are one
frame each; responses are a *stream* of frames ending with one whose
``"final"`` field is true (``run`` answers with a single final frame,
``sweep`` streams one frame per grid point before its final summary), so a
client reads frames until ``final`` without knowing the op's shape.

:class:`RunRequest` is the unit of traffic the whole subsystem shares: the
server executes it, the load generator draws seeded mixes of it, and its
:meth:`~RunRequest.cluster_key` — the canonical *(graph family | scenario,
n, seed, k, partition scheme, epoch)* identity — is what in-flight
coalescing, key-affinity dispatch and the hit-rate accounting all key on.
The input graph comes from :func:`~repro.corpus.inputs.resolve_input`,
the resolver ``Session.run`` and the CLI share, and the config overlay
is ``Session.run``'s, which is what makes a served envelope identical to
an uncoalesced local run — pinned by ``tests/service/test_server.py``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.cluster.partition import PARTITION_SCHEMES, PartitionConfig
from repro.corpus.families import CorpusParam, sizeable_families
from repro.corpus.inputs import generated_input, resolve_input
from repro.graphs.graph import Graph
from repro.runtime.config import ClusterConfig, RunConfig, UpdatePlan
from repro.runtime.registry import get_algorithm

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RunRequest",
    "encode_frame",
    "read_frame",
    "write_frame",
]

#: Upper bound on one frame's JSON payload (a full RunReport envelope for a
#: large sweep cell is ~100 KiB; 32 MiB leaves room without letting a
#: corrupt length prefix allocate the machine away).
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Strict decoders for the request fields that shape its input and cluster.
_IDENTITY_FIELDS = tuple(CorpusParam(name, "int", 0) for name in ("n", "seed", "k", "epoch")) + (
    CorpusParam("weighted", "bool", True),
)


class ProtocolError(ValueError):
    """A malformed frame or request; the connection is not recoverable."""


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One wire frame: length prefix + compact sorted-key JSON."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(data)) + data


async def write_frame(writer: asyncio.StreamWriter, payload: Mapping[str, Any]) -> None:
    """Write one frame and drain (so back-pressure reaches the sender)."""
    writer.write(encode_frame(payload))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF (peer closed between frames)."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("truncated frame header") from None
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("truncated frame body") from None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


@dataclass(frozen=True)
class RunRequest:
    """One unit of service traffic (see module docstring).

    Attributes
    ----------
    algorithm:
        Runtime-registry name to execute (``repro list``).
    family:
        Input graph family, any sizeable corpus family
        (:func:`~repro.corpus.families.sizeable_families`); ``None`` means
        the scenario's family, falling back to benign ``gnm`` — the
        precedence of :func:`~repro.corpus.inputs.resolve_input`.
    scenario:
        Optional registered scenario name; its partition / fault / churn
        axes overlay the request's config via ``Scenario.apply``.
    n / seed / k:
        Graph size, resolved run seed, and machine count.
    scheme:
        Partition scheme (:data:`~repro.cluster.partition.PARTITION_SCHEMES`);
        a scenario's non-default placement wins, matching ``Scenario.apply``.
    epoch:
        Partition epoch of the cluster build (DESIGN.md §8) — a first-class
        axis of the coalescing key, so traffic can model epoch-refreshed
        caches without new graphs.
    weighted:
        Attach unique edge weights to the input (default on, like
        :class:`~repro.scenarios.registry.Scenario`, so one cached graph
        serves weighted and unweighted algorithms alike); forced on when
        the algorithm with its params requires weights.
    updates:
        Optional :class:`~repro.scenarios.updates.UpdatePlan` as its
        ``to_dict`` form — an edge-update stream to replay against a
        maintained structure (``mst_dynamic``).  Deliberately *not* part
        of :meth:`cluster_key`: the stream mutates maintained state, not
        the cluster build, so update traffic still coalesces onto the
        same cached cluster as static traffic for the same input.
    params:
        Algorithm-specific extras, merged into ``RunConfig.params``.
    corpus:
        Optional corpus entry id (``<family>/<hash>_<seed>``): the input
        comes memory-mapped from the service's shared
        :class:`~repro.corpus.manager.CorpusManager` instead of being
        generated per worker.  Mutually exclusive with ``family`` (the
        entry already pins family, params and graph seed); ``n``,
        ``seed`` and ``weighted`` keep their config roles but no longer
        shape the input.  Excluded from :meth:`to_dict` when unset, so
        committed envelopes predating the field stay byte-identical.
    """

    algorithm: str = "connectivity"
    family: str | None = None
    scenario: str | None = None
    n: int = 256
    seed: int = 0
    k: int = 4
    scheme: str = "uniform"
    epoch: int = 0
    weighted: bool = True
    updates: dict | None = None
    params: dict = field(default_factory=dict)
    corpus: str | None = None

    def validate(self) -> "RunRequest":
        """Raise :class:`ProtocolError` on the first invalid field."""
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ProtocolError(f"algorithm must be a non-empty string, got {self.algorithm!r}")
        if self.family is not None and self.family not in sizeable_families():
            raise ProtocolError(
                f"family must be one of {sizeable_families()} or null, got {self.family!r}"
            )
        if self.scenario is not None and not isinstance(self.scenario, str):
            raise ProtocolError(f"scenario must be a string or null, got {self.scenario!r}")
        if not isinstance(self.n, int) or self.n < 4:
            raise ProtocolError(f"n must be an int >= 4, got {self.n!r}")
        if not isinstance(self.seed, int):
            raise ProtocolError(f"seed must be an int, got {self.seed!r}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ProtocolError(f"k must be an int >= 2, got {self.k!r}")
        if self.scheme not in PARTITION_SCHEMES:
            raise ProtocolError(
                f"scheme must be one of {PARTITION_SCHEMES}, got {self.scheme!r}"
            )
        if not isinstance(self.epoch, int) or self.epoch < 0:
            raise ProtocolError(f"epoch must be a non-negative int, got {self.epoch!r}")
        if self.updates is not None:
            try:
                UpdatePlan.from_dict(self.updates)
            except ValueError as exc:
                raise ProtocolError(f"invalid update plan: {exc}") from None
        if not isinstance(self.params, dict):
            raise ProtocolError(f"params must be an object, got {type(self.params).__name__}")
        if self.corpus is not None:
            if not isinstance(self.corpus, str) or not self.corpus:
                raise ProtocolError(
                    f"corpus must be a non-empty string or null, got {self.corpus!r}"
                )
            if self.family is not None:
                raise ProtocolError(
                    "corpus and family are mutually exclusive: the corpus entry "
                    "already pins the input family"
                )
        return self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The request as JSON-ready data (inverse of :meth:`from_dict`).

        ``corpus`` is emitted only when set — committed envelopes from
        before the field exists must round-trip byte-identically.
        """
        out = {
            "algorithm": self.algorithm,
            "family": self.family,
            "scenario": self.scenario,
            "n": self.n,
            "seed": self.seed,
            "k": self.k,
            "scheme": self.scheme,
            "epoch": self.epoch,
            "weighted": self.weighted,
            "updates": None if self.updates is None else dict(self.updates),
            "params": dict(self.params),
        }
        if self.corpus is not None:
            out["corpus"] = self.corpus
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRequest":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        d = dict(data)
        unknown = set(d) - {
            "algorithm", "family", "scenario", "n", "seed", "k",
            "scheme", "epoch", "weighted", "updates", "params", "corpus",
        }
        if unknown:
            raise ProtocolError(f"unknown request fields: {', '.join(sorted(unknown))}")
        for spec in _IDENTITY_FIELDS:
            if spec.name in d:
                try:
                    d[spec.name] = spec.coerce(d[spec.name])
                except ValueError as exc:
                    raise ProtocolError(str(exc)) from None
        if d.get("params") is None:
            d.pop("params", None)
        return cls(**d).validate()

    # -- semantics (shared by server, loadgen and tests) -------------------

    def resolved_scenario(self):
        """The registered :class:`~repro.scenarios.registry.Scenario`, or None."""
        if self.scenario is None:
            return None
        from repro.scenarios.registry import get_scenario

        return get_scenario(self.scenario)

    def run_config(self) -> RunConfig:
        """The :class:`RunConfig` this request resolves to.

        Base config from the request fields, then the scenario overlay —
        the same composition ``Session.run(..., scenario=...)`` applies,
        so served envelopes carry identical config provenance.
        """
        base = RunConfig(
            seed=self.seed,
            cluster=ClusterConfig(k=self.k, partition=PartitionConfig(scheme=self.scheme)),
            updates=None if self.updates is None else UpdatePlan.from_dict(self.updates),
            params=dict(self.params),
        ).validate()
        sc = self.resolved_scenario()
        return base if sc is None else sc.apply(base)

    def family_label(self) -> str:
        """The effective input family: a ``corpus`` entry wins over an
        explicit ``family``, which wins over the scenario's (mirroring
        ``--corpus`` > ``--graph`` > ``--scenario`` in the CLI)."""
        if self.corpus is not None:
            return f"corpus:{self.corpus}"
        if self.family is not None:
            return self.family
        if self.scenario is not None:
            return f"scenario:{self.scenario}"
        return "gnm"

    def effective_weighted(self) -> bool:
        """Whether the built graph carries weights (see :meth:`build_graph`).

        A generated input follows the resolver's own rule
        (:func:`~repro.corpus.inputs.generated_input`).  For a corpus
        request the stored entry decides; the flag here is advisory (the
        entry id inside :meth:`graph_key` already pins the exact arrays,
        weights included), so it leaves out params-dependent needs and
        the keys of served corpus traffic stay as they were.
        """
        if self.corpus is not None:
            return bool(self.weighted or get_algorithm(self.algorithm).needs_weights())
        return generated_input(
            family=self.family,
            scenario=self.scenario,
            weighted=self.weighted,
            algorithm=self.algorithm,
            params=self.params,
        )[1]

    def graph_key(self) -> str:
        """Canonical identity of the input graph this request needs."""
        return json.dumps(
            [self.family_label(), self.n, self.seed, self.effective_weighted()],
            separators=(",", ":"),
        )

    def cluster_key(self) -> str:
        """The coalescing key: (family|scenario, n, seed, k, scheme, epoch).

        Canonical JSON, so it is hashable, order-stable across processes
        (no ``PYTHONHASHSEED`` dependence) and safe to use for both
        key-affinity dispatch and deterministic hit-rate accounting.  The
        placement component is the *effective* partition section after the
        scenario overlay — two requests that resolve to the same placement
        genuinely share a cluster build.
        """
        partition = self.run_config().cluster.partition.to_dict()
        return json.dumps(
            [self.family_label(), self.n, self.seed, self.k, partition, self.epoch],
            sort_keys=True,
            separators=(",", ":"),
        )

    def build_graph(self, corpus=None) -> Graph:
        """Build this request's input graph (deterministic in the request).

        Resolved by :func:`~repro.corpus.inputs.resolve_input`, the same
        call ``Session.run`` and the CLI make, so ``family="lollipop"``
        builds the graph of ``repro run --graph lollipop`` and of an
        ad-hoc ``Scenario(family="lollipop")``.  A ``corpus`` request
        loads its entry memory-mapped through the given
        :class:`~repro.corpus.manager.CorpusManager` (the service threads
        its shared manager here); an unknown entry, or one without the
        weights the algorithm requires, is a :class:`ProtocolError`.
        """
        try:
            return resolve_input(
                n=self.n,
                seed=self.seed,
                family=self.family,
                scenario=self.scenario,
                corpus=self.corpus,
                weighted=self.weighted,
                algorithm=self.algorithm,
                params=self.params,
                manager=corpus,
            )
        except (KeyError, ValueError) as exc:
            if self.corpus is None:
                raise
            raise ProtocolError(str(exc)) from None
