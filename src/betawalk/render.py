"""Leaf helpers shared by the CLI and the library.

Serialization of exact integers and rationals and 15-digit decimals, the
short form a message gives an integer, the values the CLI parser shows as
defaults or choices, and the error the library raises for an input it
rejects, with the check that raises it for work over a budget.  This
module imports nothing from
the package, so the parser is built without loading a library layer.
"""

from __future__ import annotations

import math
from fractions import Fraction

# brute_force_return's default budget and the oracle command's --budget
DEFAULT_PATH_BUDGET = 10_000_000
# normalizations accepted by numeric.evaluate_series and series --variant
SERIES_VARIANTS = ("printed", "over-k-factorial", "over-k-factorial-squared")
# the most terms numeric.evaluate_series keeps, and series --max-terms' default
SERIES_MAX_TERMS = 10 ** 6
# the most digits a message shows of an integer
BRIEF_DIGITS = 40
# the most workers a simulation takes, and the most --threads any command takes
MAX_WORKERS = 1024


class InputError(ValueError):
    """An input the library documents as out of its range.

    ``moments``, ``numeric`` and ``walks`` raise it for a bad argument, a
    path or work budget that is too small and a walk length beyond int64;
    ``int_str`` and ``fraction_str`` for an exact value too long to print;
    the CLI for text it cannot parse and a float-mode side beyond the
    double range.  The CLI reports it as a usage error; any other
    exception is an internal fault.
    """


def check_work(what: str, work: int, budget: int,
               unit: str = "limb operations") -> None:
    """Refuse a computation whose estimated ``work`` exceeds ``budget``.

    Called before the computation starts; the InputError names ``what``,
    the estimate and the budget, each rendered by ``brief``.
    """
    if work > budget:
        raise InputError(f"{what} needs about {brief(work)} {unit} "
                         f"(budget is {brief(budget)})")


def brief(value: int) -> str:
    """An integer as a message shows it: in full up to ``BRIEF_DIGITS``
    digits, beyond that as 10^x, x = log10 |value| to one decimal, so a
    message stays one short line however large the number."""
    if abs(value) < 10 ** BRIEF_DIGITS:
        return str(value)
    return f"{'-' if value < 0 else ''}10^{math.log10(abs(value)):.1f}"


def int_str(value: int) -> str:
    """Decimal digits of an integer.

    An integer longer than Python's int-to-str limit
    (``sys.get_int_max_str_digits()``) raises InputError with Python's
    message: the value is exact but too long to print.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def fraction_str(value: Fraction) -> str:
    """Canonical "numerator/denominator" form, denominator always present;
    each part is rendered by ``int_str``."""
    return f"{int_str(value.numerator)}/{int_str(value.denominator)}"


def decimal15(value) -> str:
    """Decimal rendering to 15 significant digits."""
    return format(float(value), ".15g")
