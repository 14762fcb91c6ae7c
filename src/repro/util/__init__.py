"""Shared low-level utilities: deterministic randomness, bit accounting, validation.

Every source of randomness in :mod:`repro` flows through the explicit
seed-derivation helpers in :mod:`repro.util.rng`; no module touches global
NumPy random state.  This is what makes the distributed algorithms in
:mod:`repro.core` reproducible run-to-run and lets the k-machine simulation
model *shared randomness* (Section 2.2 of the paper) as a distributed seed.
"""

from repro.util.bits import bits_for_count, bits_for_id, ceil_div
from repro.util.rng import (
    SeedStream,
    derive_seed,
    splitmix64,
    splitmix64_scalar,
    uniform_from_u64,
)
from repro.util.validation import check_index, check_positive

__all__ = [
    "SeedStream",
    "bits_for_count",
    "bits_for_id",
    "ceil_div",
    "check_index",
    "check_positive",
    "derive_seed",
    "splitmix64",
    "splitmix64_scalar",
    "uniform_from_u64",
]
