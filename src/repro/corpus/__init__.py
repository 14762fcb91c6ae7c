"""Deterministic input corpus: generator protocol + out-of-core store.

Two layers (see :mod:`repro.corpus.families` and
:mod:`repro.corpus.manager` for the contracts):

* :data:`CORPUS_FAMILIES` — every graph family behind one self-describing,
  deterministic, seed-contract-enforcing :class:`CorpusFamily` spec;
* :class:`CorpusManager` — content-addressed materialization to
  memory-mapped npz edge arrays, with digest verification.

Consumers name a materialized instance by its entry id
(``<family>/<params-hash>_<seed>``): ``repro run --corpus`` and the
service's ``RunRequest.corpus`` resolve it through
:func:`repro.corpus.inputs.resolve_input`, and library code loads it with
:meth:`CorpusManager.load`.
"""

from repro.corpus.families import (
    CORPUS_FAMILIES,
    CorpusFamily,
    CorpusParam,
    get_family,
    parse_spec,
)
from repro.corpus.manager import (
    MANIFEST_FORMAT,
    CorpusEntry,
    CorpusManager,
    CorpusVerifyError,
    default_root,
    edge_digest,
    entry_id_for,
)

__all__ = [
    "CORPUS_FAMILIES",
    "CorpusEntry",
    "CorpusFamily",
    "CorpusManager",
    "CorpusParam",
    "CorpusVerifyError",
    "MANIFEST_FORMAT",
    "default_root",
    "edge_digest",
    "entry_id_for",
    "get_family",
    "parse_spec",
]
