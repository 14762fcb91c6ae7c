"""Content-addressed corpus of materialized graphs, loaded zero-copy.

The manager turns the :mod:`repro.corpus.families` contract into an
*out-of-core* input store (ROADMAP item 5; Sanders et al., arXiv:2302.12199
make the case that honest scaling plots need generated-once, shared
inputs):

* :meth:`CorpusManager.generate` materializes ``family.generate(params,
  seed)`` exactly once to ``<root>/<family>/<params-hash>_<seed>.npz``
  (uncompressed ``np.savez``) plus a sorted-key JSON manifest carrying
  the normalized params, seed, ``n``, ``m``, the weights flag, and a
  SHA-256 digest over the edge arrays;
* :meth:`CorpusManager.load` maps the stored arrays back **zero-copy**.
  ``np.load(..., mmap_mode="r")`` silently falls back to an in-memory
  read for npz members, so we go one level down: npz members are stored
  uncompressed (``ZIP_STORED``), and :func:`_mmap_npz_arrays` computes
  each member's payload offset from its zip local-file header and hands
  it to :class:`numpy.memmap`.  Only the CSR index arrays (a function of
  the edge list) are rebuilt in memory; the O(m) edge arrays stay on
  disk, which is what admits n ~ 1e7 inputs on a small-RAM worker;
* :meth:`CorpusManager.verify` re-digests the stored arrays *and*
  regenerates every entry through its family, failing on any drift —
  the corpus equivalent of the differential suites' byte gates.

Loads go through a small thread-safe LRU per manager.  The service
shares one manager across its workers, so concurrent requests for one
corpus entry coalesce onto a single mmap open.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.corpus.families import CORPUS_FAMILIES, CorpusFamily, get_family
from repro.graphs.graph import Graph

__all__ = [
    "CorpusEntry",
    "CorpusManager",
    "CorpusVerifyError",
    "MANIFEST_FORMAT",
    "default_root",
    "entry_id_for",
]

#: Manifest schema tag; bump on any incompatible layout change.
MANIFEST_FORMAT = "repro-corpus-v1"

#: Hex chars of the params hash kept in file names (full hash in manifest).
_HASH_PREFIX = 12


class CorpusVerifyError(ValueError):
    """A corpus entry failed digest or regeneration verification."""


def default_root() -> Path:
    """Corpus directory: ``$REPRO_CORPUS_DIR`` or ``./corpus``."""
    return Path(os.environ.get("REPRO_CORPUS_DIR", "corpus"))


def canonical_params_json(params: Mapping) -> str:
    """Sorted-key JSON of a normalized param dict (the hashing basis)."""
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"))


def params_hash(params: Mapping) -> str:
    """Full SHA-256 hex digest of the canonical params JSON."""
    return hashlib.sha256(canonical_params_json(params).encode()).hexdigest()


def entry_id_for(family: CorpusFamily, params: Mapping, seed: int = 0) -> str:
    """Content-addressed id ``<family>/<params-hash>_<seed>`` for a cell.

    The seed is normalized first, so an unseeded family has exactly one
    entry per param cell no matter what seed the caller passes.
    """
    normalized = family.normalize(params)
    s = family.normalize_seed(seed)
    return f"{family.name}/{params_hash(normalized)[:_HASH_PREFIX]}_{s}"


def edge_digest(
    edges_u: np.ndarray, edges_v: np.ndarray, weights: np.ndarray | None
) -> str:
    """SHA-256 over the canonical edge arrays (the drift detector).

    Covers dtype/length framing plus raw bytes of ``edges_u``/``edges_v``
    and, for weighted entries, ``weights`` — exactly the arrays the npz
    stores, so the digest is computable from a fresh generation and from
    the memory-mapped file alike.
    """
    h = hashlib.sha256()
    for tag, arr in (("edges_u", edges_u), ("edges_v", edges_v), ("weights", weights)):
        if arr is None:
            continue
        h.update(f"{tag}:{arr.dtype.str}:{arr.size};".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _mmap_npz_arrays(path: Path) -> dict[str, np.ndarray]:
    """Memory-map every member of an uncompressed ``.npz`` file.

    ``np.load(path, mmap_mode="r")`` ignores ``mmap_mode`` for zip
    archives, so this parses each member's zip local-file header (4.3.7
    of the zip spec: 30 fixed bytes, then name and extra fields whose
    lengths sit at offsets 26 and 28) and the npy header behind it, then
    maps the payload in place with :class:`numpy.memmap`.
    """
    out: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf:
        for zinfo in zf.infolist():
            if zinfo.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"{path}: member {zinfo.filename!r} is compressed; "
                    "corpus npz files must be stored uncompressed"
                )
            with open(path, "rb") as f:
                f.seek(zinfo.header_offset)
                header = f.read(30)
                name_len, extra_len = struct.unpack("<HH", header[26:30])
                f.seek(zinfo.header_offset + 30 + name_len + extra_len)
                payload_start = f.tell()
                version = np.lib.format.read_magic(f)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
                else:  # pragma: no cover - numpy only writes 1.0/2.0 here
                    raise ValueError(f"{path}: unsupported npy version {version}")
                if fortran:  # pragma: no cover - 1-D arrays are C-order
                    raise ValueError(f"{path}: fortran-order member {zinfo.filename!r}")
                data_offset = f.tell()
                del payload_start
            key = zinfo.filename.removesuffix(".npy")
            out[key] = np.memmap(
                path, dtype=dtype, mode="r", shape=shape, offset=data_offset
            )
    return out


@dataclass(frozen=True)
class CorpusEntry:
    """One materialized corpus instance (manifest view).

    ``entry_id`` is the content address (``<family>/<hash>_<seed>``);
    ``digest`` is the SHA-256 of the stored edge arrays.
    """

    entry_id: str
    family: str
    params: dict
    seed: int
    n: int
    m: int
    weighted: bool
    digest: str

    def manifest(self) -> dict:
        """The sorted-key manifest payload written next to the npz."""
        return {
            "digest": self.digest,
            "entry_id": self.entry_id,
            "family": self.family,
            "format": MANIFEST_FORMAT,
            "m": self.m,
            "n": self.n,
            "params": dict(sorted(self.params.items())),
            "seed": self.seed,
            "weighted": self.weighted,
        }

    def describe(self) -> str:
        """The generator-protocol line this entry was materialized from."""
        return get_family(self.family).describe(self.params)


class CorpusManager:
    """Materialize, memory-map, and verify corpus entries under one root.

    Thread-safe: generation takes a per-manager lock around the
    write-then-rename, and loads share one LRU so concurrent consumers of
    the same entry coalesce onto a single mmap open (pinned by the
    service tests via :meth:`cache_info`).
    """

    def __init__(self, root: str | Path | None = None, *, cache_size: int = 16) -> None:
        """Create a manager rooted at ``root`` (default :func:`default_root`)."""
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.root = Path(root) if root is not None else default_root()
        self._cache_size = int(cache_size)
        self._cache: OrderedDict[tuple[str, bool], Graph] = OrderedDict()
        self._lock = threading.Lock()
        self._load_hits = 0
        self._load_misses = 0
        self._load_evictions = 0

    # -- paths -------------------------------------------------------------

    def npz_path(self, entry_id: str) -> Path:
        """On-disk npz path for ``entry_id``."""
        return self.root / f"{entry_id}.npz"

    def manifest_path(self, entry_id: str) -> Path:
        """On-disk manifest path for ``entry_id``."""
        return self.root / f"{entry_id}.json"

    # -- generation --------------------------------------------------------

    def generate(
        self,
        family: str | CorpusFamily,
        params: Mapping | None = None,
        seed: int = 0,
        *,
        force: bool = False,
    ) -> CorpusEntry:
        """Materialize one ``(family, params, seed)`` cell; idempotent.

        Existing entries are returned as-is unless ``force``; the npz and
        manifest are written to temp names and renamed, so readers never
        observe a half-written entry.
        """
        fam = get_family(family) if isinstance(family, str) else family
        normalized = fam.normalize(params or {})
        s = fam.normalize_seed(seed)
        entry_id = entry_id_for(fam, normalized, s)
        with self._lock:
            if not force and self.manifest_path(entry_id).exists():
                return self._read_manifest(entry_id)
            g = fam.generate(normalized, s)
            entry = CorpusEntry(
                entry_id=entry_id,
                family=fam.name,
                params=normalized,
                seed=s,
                n=g.n,
                m=g.m,
                weighted=g.weighted,
                digest=edge_digest(g.edges_u, g.edges_v, g.weights if g.weighted else None),
            )
            npz = self.npz_path(entry_id)
            npz.parent.mkdir(parents=True, exist_ok=True)
            arrays = {"edges_u": g.edges_u, "edges_v": g.edges_v}
            if g.weighted:
                arrays["weights"] = g.weights
            tmp_npz = npz.with_suffix(".npz.tmp")
            with open(tmp_npz, "wb") as f:
                np.savez(f, **arrays)
            tmp_npz.replace(npz)
            tmp_manifest = self.manifest_path(entry_id).with_suffix(".json.tmp")
            tmp_manifest.write_text(
                json.dumps(entry.manifest(), sort_keys=True, indent=2) + "\n"
            )
            tmp_manifest.replace(self.manifest_path(entry_id))
            self._cache.pop((entry_id, True), None)
            self._cache.pop((entry_id, False), None)
            return entry

    def generate_grid(
        self, families: tuple[str, ...] | None = None, seed: int = 0
    ) -> list[CorpusEntry]:
        """Materialize every default grid cell of the named families."""
        names = families if families is not None else tuple(sorted(CORPUS_FAMILIES))
        out = []
        for name in names:
            fam = get_family(name)
            cells = fam.grid or ({},)
            for cell in cells:
                out.append(self.generate(fam, cell, seed))
        return out

    # -- loading -----------------------------------------------------------

    def load(self, entry_id: str, *, mmap: bool = True) -> Graph:
        """Load an entry as a :class:`Graph`, memory-mapped by default.

        Served from the shared LRU when possible; ``mmap=False`` forces a
        plain in-memory read (useful on filesystems without mmap).
        """
        key = (entry_id, bool(mmap))
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._load_hits += 1
                return cached
            self._load_misses += 1
            entry = self._read_manifest(entry_id)
            g = self._load_graph(entry, mmap=mmap)
            self._cache[key] = g
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
                self._load_evictions += 1
            return g

    def _load_graph(self, entry: CorpusEntry, *, mmap: bool) -> Graph:
        npz = self.npz_path(entry.entry_id)
        if mmap:
            arrays = _mmap_npz_arrays(npz)
        else:
            with np.load(npz) as data:
                arrays = {k: data[k] for k in data.files}
        edges_u = arrays["edges_u"]
        edges_v = arrays["edges_v"]
        weights = arrays.get("weights")
        if entry.weighted != (weights is not None):
            raise CorpusVerifyError(
                f"{entry.entry_id}: manifest weighted={entry.weighted} but npz "
                f"{'has' if weights is not None else 'lacks'} a weights array"
            )
        if int(edges_u.size) != entry.m:
            raise CorpusVerifyError(
                f"{entry.entry_id}: manifest m={entry.m} but npz stores "
                f"{int(edges_u.size)} edges"
            )
        return Graph.from_canonical(entry.n, edges_u, edges_v, weights)

    # -- inspection --------------------------------------------------------

    def entries(self) -> list[CorpusEntry]:
        """All materialized entries under the root, sorted by id."""
        if not self.root.exists():
            return []
        found = []
        for manifest in sorted(self.root.glob("*/*.json")):
            entry_id = f"{manifest.parent.name}/{manifest.stem}"
            found.append(self._read_manifest(entry_id))
        return found

    def info(self, entry_id: str) -> dict:
        """Manifest payload plus on-disk byte sizes for one entry."""
        entry = self._read_manifest(entry_id)
        payload = entry.manifest()
        payload["npz_bytes"] = self.npz_path(entry_id).stat().st_size
        payload["spec"] = entry.describe()
        return payload

    def _read_manifest(self, entry_id: str) -> CorpusEntry:
        path = self.manifest_path(entry_id)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise KeyError(f"corpus entry {entry_id!r} not found under {self.root}") from None
        except json.JSONDecodeError as exc:
            raise CorpusVerifyError(f"{entry_id}: manifest is not valid JSON: {exc}") from None
        required = {
            "digest", "entry_id", "family", "format", "m", "n", "params",
            "seed", "weighted",
        }
        missing = required - set(raw)
        if missing:
            raise CorpusVerifyError(
                f"{entry_id}: manifest missing field(s) {', '.join(sorted(missing))}"
            )
        if raw["format"] != MANIFEST_FORMAT:
            raise CorpusVerifyError(
                f"{entry_id}: manifest format {raw['format']!r} != {MANIFEST_FORMAT!r}"
            )
        if raw["entry_id"] != entry_id:
            raise CorpusVerifyError(
                f"{entry_id}: manifest claims entry_id {raw['entry_id']!r}"
            )
        return CorpusEntry(
            entry_id=entry_id,
            family=str(raw["family"]),
            params=dict(raw["params"]),
            seed=int(raw["seed"]),
            n=int(raw["n"]),
            m=int(raw["m"]),
            weighted=bool(raw["weighted"]),
            digest=str(raw["digest"]),
        )

    # -- verification ------------------------------------------------------

    def verify(self, entry_id: str, *, regenerate: bool = True) -> CorpusEntry:
        """Check one entry against its manifest; raise :class:`CorpusVerifyError`.

        Two independent gates: (1) the stored arrays re-digest to the
        manifest digest (catches on-disk corruption); (2) with
        ``regenerate``, the family re-generates the cell and must produce
        that same digest plus matching ``n``/``m`` (catches generator
        drift — the manifest is a pinned contract, not a cache tag).
        """
        entry = self._read_manifest(entry_id)
        fam = get_family(entry.family)
        normalized = fam.normalize(entry.params)
        if fam.normalize_seed(entry.seed) != entry.seed:
            raise CorpusVerifyError(
                f"{entry_id}: manifest seed {entry.seed} is not normalized "
                f"(family {fam.name!r} is unseeded; stored seeds must be 0)"
            )
        if entry_id_for(fam, normalized, entry.seed) != entry_id:
            raise CorpusVerifyError(
                f"{entry_id}: params/seed do not hash to this entry id"
            )
        try:
            g = self._load_graph(entry, mmap=False)
        except CorpusVerifyError:
            raise
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            # A flipped byte can land in zip/npy framing rather than the
            # array payload; unreadable counts as corrupt, same as drift.
            raise CorpusVerifyError(f"{entry_id}: npz unreadable: {exc}") from exc
        stored = edge_digest(
            g.edges_u, g.edges_v, g.weights if entry.weighted else None
        )
        if stored != entry.digest:
            raise CorpusVerifyError(
                f"{entry_id}: stored arrays digest {stored[:16]}... != "
                f"manifest {entry.digest[:16]}..."
            )
        if regenerate:
            fresh = fam.generate(normalized, entry.seed)
            fresh_digest = edge_digest(
                fresh.edges_u, fresh.edges_v, fresh.weights if fresh.weighted else None
            )
            if (fresh.n, fresh.m, fresh_digest) != (entry.n, entry.m, entry.digest):
                raise CorpusVerifyError(
                    f"{entry_id}: regeneration drift — manifest "
                    f"(n={entry.n}, m={entry.m}, {entry.digest[:16]}...) vs fresh "
                    f"(n={fresh.n}, m={fresh.m}, {fresh_digest[:16]}...)"
                )
        return entry

    def verify_all(self, *, regenerate: bool = True) -> Iterator[tuple[str, str | None]]:
        """Yield ``(entry_id, error-or-None)`` for every entry under the root."""
        for entry in self.entries():
            try:
                self.verify(entry.entry_id, regenerate=regenerate)
                yield entry.entry_id, None
            except (CorpusVerifyError, KeyError, ValueError) as exc:
                yield entry.entry_id, str(exc)

    # -- cache -------------------------------------------------------------

    def cache_info(self) -> dict:
        """Load-LRU counters: hits/misses/evictions/size/max_size."""
        with self._lock:
            return {
                "hits": self._load_hits,
                "misses": self._load_misses,
                "evictions": self._load_evictions,
                "size": len(self._cache),
                "max_size": self._cache_size,
            }

    def clear_cache(self) -> None:
        """Drop every cached graph (mmaps close when views are released)."""
        with self._lock:
            self._cache.clear()
