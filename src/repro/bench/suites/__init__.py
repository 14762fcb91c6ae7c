"""Built-in benchmark suites, registered on import.

Importing this package populates the registry in
:mod:`repro.bench.registry`; the registry imports it lazily on first
access (``list_benchmarks`` / ``get_benchmark``), so suite modules may
import the rest of the package freely.
"""

import repro.bench.suites.ablations  # noqa: F401
import repro.bench.suites.baselines  # noqa: F401
import repro.bench.suites.corpus  # noqa: F401
import repro.bench.suites.crossover  # noqa: F401
import repro.bench.suites.dynamic  # noqa: F401
import repro.bench.suites.lowerbound  # noqa: F401
import repro.bench.suites.scaling  # noqa: F401
import repro.bench.suites.scenarios  # noqa: F401
import repro.bench.suites.service  # noqa: F401
import repro.bench.suites.structure  # noqa: F401
