"""Leaf helpers shared by the CLI and the library.

Serialization of exact rationals and 15-digit decimals, and the two values
the CLI parser shows as defaults or choices.  This module imports nothing
from the package, so the parser is built without loading a library layer;
``walks`` and ``numeric`` re-export the constants under their old names.
"""

from __future__ import annotations

from fractions import Fraction

# brute_force_return's default budget and the oracle command's --budget
DEFAULT_PATH_BUDGET = 10_000_000
# normalizations accepted by numeric.evaluate_series and series --variant
SERIES_VARIANTS = ("printed", "over-k-factorial", "over-k-factorial-squared")


def fraction_str(value: Fraction) -> str:
    """Canonical "numerator/denominator" form, denominator always present."""
    return f"{value.numerator}/{value.denominator}"


def decimal15(value) -> str:
    """Decimal rendering to 15 significant digits."""
    return format(float(value), ".15g")
