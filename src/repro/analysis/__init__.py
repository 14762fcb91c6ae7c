"""Experiment support: scaling fits and text tables (``Session.sweep`` runs the grids)."""

from repro.analysis.scaling import (
    PowerLawFit,
    fit_power_law,
    fit_power_law_stripped,
    ratio_table,
)
from repro.analysis.tables import format_table, print_table

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "fit_power_law_stripped",
    "format_table",
    "print_table",
    "ratio_table",
]
