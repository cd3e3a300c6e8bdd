"""Floating-point checks of the master identity in doubles.

The exact engine takes every rational shape p > 0.  Here, for a real p > 0
given as a double (``--mode float``), the two moment expansions are the same
two series products as in ``moments``, evaluated in doubles: each series
holds the moments E[Y^0..Y^2n] of one variable, and the moments of a sum of
independent variables are their binomial convolution, summed with
math.fsum.  The raw expansion alternates, so its sum loses roughly
log10(condition number) digits; the verdict scales the tolerance
accordingly.  Where the scaled tolerance reaches 1, or the difference lies
within the rounding error of the doubles, the check is inconclusive.

Also here: partial-sum diagnostics for the central-binomial ratio series
(three normalization variants, since the stated form of that series
diverges -- see ``evaluate_series``).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple, Sequence

from .render import (SERIES_MAX_TERMS, SERIES_VARIANTS, InputError, brief,
                     check_work, fraction_str)

__all__ = [
    "FLOAT_WORK_BUDGET",
    "FloatVerification",
    "SeriesEvaluation",
    "verify_master_float",
    "evaluate_series",
]

# the bound on a float record's charged series terms: at most about 4 s on
# a 2-vCPU machine
FLOAT_WORK_BUDGET = 4_000_000


class FloatVerification(NamedTuple):
    """Two-sided float evaluation with a cancellation-aware verdict.

    The condition number is max(1, mass / rhs), where mass is the raw
    expansion summed with every sign made positive and rhs, a sum of
    positive terms, is accurate to a few ulps.  ``rounding_bound`` is
    gamma = 16 (n + k) 2^-53, a first-order bound on rel_diff / cond that
    rounding alone can produce: each moment sequence adds four roundings
    per degree and each convolution level four more per term.  With
    level = max(tolerance, gamma) * condition_number, ``passed`` holds iff
    level < 1 and rel_diff <= tolerance * condition_number; a record not
    passed is ``inconclusive`` when level >= 1 (doubles cannot decide) or
    rel_diff <= level (the difference may be rounding), and violated only
    when rel_diff > level.
    """

    lhs: float
    rhs: float
    abs_diff: float
    rel_diff: float
    condition_number: float
    tolerance: float
    passed: bool
    rounding_bound: float

    @property
    def inconclusive(self) -> bool:
        level = max(self.tolerance, self.rounding_bound) \
            * self.condition_number
        return not self.passed and (level >= 1 or self.rel_diff <= level)

    def to_json_obj(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "absDiff": self.abs_diff,
            "relDiff": self.rel_diff,
            "conditionNumber": self.condition_number,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _ratio_moments(a: float, b: float, count: int) -> list[float]:
    """(a)_j / (b)_j for j = 0..count-1, each from the last by one ratio."""
    seq = [1.0]
    for j in range(count - 1):
        seq.append(seq[-1] * (a + j) / (b + j))
    return seq


def _binomial_rows(count: int) -> list[list[float]]:
    """C(d, i) for d = 0..count-1 as doubles, each rounded once from the
    exact integer of Pascal's rule; a C(d, i) beyond the double range
    raises OverflowError."""
    rows, row = [], [1]
    for _ in range(count):
        rows.append(list(map(float, row)))
        row = [1, *map(add, row, row[1:]), 1]
    return rows


def _moment_product(factors: Sequence[Sequence[float]],
                    rows: Sequence[Sequence[float]]) -> list[float]:
    """Moments of a sum of independent variables from each one's moments.

    Each factor lists E[Y^0..Y^D] of one variable; the product's moments are
    P_d = sum_i C(d, i) P_i F_{d-i}, with C(d, i) from ``rows``, which the
    factors share.  The binomial weights, in place of the exponential
    generating function's 1/j!, keep every value a moment, so it stays
    inside the double range whenever the answer does.
    """
    product = factors[0]
    for factor in factors[1:]:
        product = [math.fsum(map(mul, map(mul, row, product),
                                 reversed(factor[:d + 1])))
                   for d, row in enumerate(rows)]
    return product


def _check_terms(n: int, k: int) -> None:
    """Refuse a float record of k weights on its series lengths alone,
    before the weights are built.

    Each weight is charged its binomial convolution, (2n+1)(2n+2)/2 terms
    over series of 2n + 1 moments, plus 8 per degree for building its
    series and summing each degree: k (2n+1)(n+9) in all.  A record makes
    three such passes per weight; on a 2-vCPU machine records at the
    budget take 1.3-4.1 s for n = 1..200.
    """
    check_work(f"float record at n={brief(n)}, k={brief(k)}",
               k * (2 * n + 1) * (n + 9), FLOAT_WORK_BUDGET, "terms")


def verify_master_float(n: int, coeffs: Sequence[float], p: float,
                        tolerance: float = 1e-10) -> FloatVerification:
    """Evaluate both moment expansions in doubles and compare.

    Valid for any real p > 0, positive weights and a finite tolerance
    >= 0.  A failed or inconclusive comparison is a report, not an
    exception; a record over ``FLOAT_WORK_BUDGET`` (``_check_terms``)
    or a side beyond the double range (overflow, or an rhs below the
    smallest normal double) raises InputError.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if not p > 0:
        raise InputError("p must be > 0")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InputError("--tolerance must be finite and >= 0")
    coeffs = [float(c) for c in coeffs]
    _check_terms(n, len(coeffs))
    if not coeffs:
        raise InputError("at least one coefficient is required")
    if any(not c > 0 for c in coeffs):
        raise InputError("coefficients must be positive")
    degrees = range(2 * n + 1)
    try:
        rows = _binomial_rows(2 * n + 1)
        c_total = math.fsum(coeffs)
        head = [c_total ** j for j in degrees]
        m = _ratio_moments(p, 2 * p, 2 * n + 1)
        mu = _ratio_moments(0.5, p + 0.5, n + 1)
        # the raw side, then its absolute mass: every sign made positive
        lhs, mass = (_moment_product(
            [head] + [[(w * c) ** j * m[j] for j in degrees] for c in coeffs],
            rows)[-1] for w in (-2, 2))
        rhs = _moment_product(
            [[0.0 if j & 1 else c ** j * mu[j // 2] for j in degrees]
             for c in coeffs], rows)[-1]
        if not all(map(math.isfinite, (lhs, mass, rhs))):
            raise OverflowError
    except (OverflowError, ValueError):  # fsum's ValueError is inf - inf
        raise InputError(f"float evaluation at n={n} exceeds the double "
                         "range (overflow)") from None
    if rhs < sys.float_info.min:
        raise InputError(f"float evaluation at n={n} exceeds the double "
                         "range (underflow)")

    abs_diff = abs(lhs - rhs)
    rel_diff = abs_diff / max(abs(lhs), rhs)
    condition = max(1.0, mass / rhs)
    rounding = 16 * (n + len(coeffs)) * 2.0 ** -53
    passed = (max(tolerance, rounding) * condition < 1
              and rel_diff <= tolerance * condition)
    return FloatVerification(lhs, rhs, abs_diff, rel_diff, condition,
                             tolerance, passed, rounding)


# ---------------------------------------------------------------------------
# series diagnostics
#
# term_k(n) = rising(1/2, k)^2 * Gamma(n+1/2) / Gamma(n+k+3/2) / norm_k with
# norm_k one of {1, k!, (k!)^2}; the sqrt(pi) contents cancel so every term
# is an exact rational, and consecutive terms differ by the small ratio
#     (2k+1)^2 / (2 * (2n+2k+3) * div_k).
# The claimed limit is pi * C(2n,n)^2 / 4^(2n).  As stated (norm_k = 1) the
# terms eventually GROW; which normalization actually reaches the target is
# measured, never assumed.
# ---------------------------------------------------------------------------

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
