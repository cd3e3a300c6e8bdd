"""Partial-sum diagnostics for the central-binomial ratio series.

term_k(n) = rising(1/2, k)^2 * Gamma(n+1/2) / Gamma(n+k+3/2) / norm_k with
norm_k one of {1, k!, (k!)^2}; the sqrt(pi) contents cancel so every term
is an exact rational, and consecutive terms differ by the small ratio
    (2k+1)^2 / (2 * (2n+2k+3) * div_k).
The claimed limit is pi * C(2n,n)^2 / 4^(2n).  As stated (norm_k = 1) the
terms eventually GROW; which normalization actually reaches the target is
measured, never assumed (``evaluate_series``).  The moment identities
themselves are checked only in exact arithmetic, in ``moments``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .render import (SERIES_MAX_TERMS, SERIES_VARIANTS, InputError,
                     fraction_str)

__all__ = [
    "SeriesEvaluation",
    "evaluate_series",
]

_CONVERGE_WINDOW = 8   # trailing terms that must be nonincreasing
_DIVERGE_WINDOW = 16   # consecutive term increases before giving up
_EXACT_WINDOW = 4096   # leading terms kept as exact rationals
_LIST_CAP = 200        # longest list to_json_obj writes in full
# the largest n: forming the exact target C(2n, n)^2 / 4^(2n) takes time
# that grows like n^2, about 1 s at 10^5 on a 2-vCPU machine
SERIES_MAX_N = 10 ** 5


class SeriesEvaluation(NamedTuple):
    """Partial-sum record for one series variant.

    ``converged`` requires the last two terms below the cutoff and a
    nonincreasing trailing window; ``diverged`` flags sustained term
    growth.  ``limit_estimate`` is the last partial sum divided by pi,
    comparable against ``target``.
    """

    variant_name: str
    partial_sums: tuple[float, ...]
    terms: tuple[float, ...]
    exact_terms: tuple[str, ...]
    converged: bool
    diverged: bool
    limit_estimate: float
    target: float
    terms_evaluated: int

    def to_json_obj(self) -> dict:
        obj = {
            "variant": self.variant_name,
            "converged": self.converged,
            "diverged": self.diverged,
            "limitEstimate": self.limit_estimate,
            "target": self.target,
            "termsEvaluated": self.terms_evaluated,
        }
        for key, values in (("partialSums", self.partial_sums),
                            ("terms", self.terms),
                            ("exactTerms", self.exact_terms)):
            if len(values) <= _LIST_CAP:
                obj[key] = list(values)
            else:
                obj[key] = {"head": list(values[:_LIST_CAP - 5]),
                            "tail": list(values[-5:]),
                            "count": len(values)}
        return obj


def _ratio_divisor(variant: str, k: int) -> int:
    # extra denominator acquired moving from term k to term k+1
    if variant == "printed":
        return 1
    if variant == "over-k-factorial":
        return k + 1
    if variant == "over-k-factorial-squared":
        return (k + 1) * (k + 1)
    raise InputError(f"unknown series variant {variant!r}; "
                     f"expected one of {SERIES_VARIANTS}")


def evaluate_series(n: int, variant: str,
                    max_terms: int = SERIES_MAX_TERMS,
                    cutoff: float = 1e-12) -> SeriesEvaluation:
    """Accumulate the series for one normalization variant.

    The first ``_EXACT_WINDOW`` terms and partial sums are exact rationals
    rendered to floats (term sizes grow with the index, so the tail beyond
    the window advances in floats via the exact integer term ratio).
    Exhausting ``max_terms`` without meeting the convergence rule reports
    converged=False; it never raises.  Every term is kept, so a
    ``max_terms`` above ``SERIES_MAX_TERMS`` raises InputError, as do an
    n above ``SERIES_MAX_N``, a cutoff that is negative or not finite and
    an exact term too long to print (``fraction_str``).
    """
    if n < 0:
        raise InputError("n must be >= 0")
    if n > SERIES_MAX_N:
        raise InputError(f"n must be at most {SERIES_MAX_N}")
    if max_terms < 1:
        raise InputError("max_terms must be >= 1")
    if max_terms > SERIES_MAX_TERMS:
        raise InputError(f"max_terms must be at most {SERIES_MAX_TERMS}")
    if not (math.isfinite(cutoff) and cutoff >= 0):
        raise InputError("cutoff must be finite and >= 0")
    _ratio_divisor(variant, 0)  # validate the name eagerly

    terms: list[float] = []
    partials: list[float] = []
    exact_terms: list[str] = []

    term_exact: Fraction | None = Fraction(2, 2 * n + 1)
    sum_exact = Fraction(0)
    term_float = float(term_exact)
    sum_float = 0.0

    converged = False
    diverged = False
    increases = 0
    first_term = term_float

    for k in range(max_terms):
        if term_exact is not None:
            term_float = float(term_exact)
            sum_exact += term_exact
            sum_float = float(sum_exact)
            exact_terms.append(fraction_str(term_exact))
        else:
            sum_float += term_float
        terms.append(term_float)
        partials.append(sum_float)

        if k >= 1:
            increases = increases + 1 if terms[k] > terms[k - 1] else 0
            window = terms[-_CONVERGE_WINDOW:]
            if (terms[k] < cutoff and terms[k - 1] < cutoff
                    and all(a >= b for a, b in zip(window, window[1:]))):
                converged = True
                break
            if (increases >= _DIVERGE_WINDOW
                    and terms[k] > max(1.0, first_term)):
                diverged = True
                break

        # advance term k -> k+1 by the exact ratio
        num = (2 * k + 1) ** 2
        den = 2 * (2 * n + 2 * k + 3) * _ratio_divisor(variant, k)
        if term_exact is not None:
            term_exact *= Fraction(num, den)
            if k + 1 >= _EXACT_WINDOW:
                term_float = float(term_exact)
                sum_float = float(sum_exact)
                term_exact = None
        else:
            term_float *= num / den

    if not converged and not diverged and len(terms) >= _DIVERGE_WINDOW:
        diverged = increases >= _DIVERGE_WINDOW

    target = Fraction(math.comb(2 * n, n) ** 2, 4 ** (2 * n))
    return SeriesEvaluation(
        variant_name=variant,
        partial_sums=tuple(partials),
        terms=tuple(terms),
        exact_terms=tuple(exact_terms),
        converged=converged,
        diverged=diverged,
        limit_estimate=partials[-1] / math.pi,
        target=float(target),
        terms_evaluated=len(terms),
    )
