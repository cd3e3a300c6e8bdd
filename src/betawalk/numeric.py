"""Floating-point checks for shapes outside the exact half-integer closure.

The exact engine only covers half-integer beta shapes.  For arbitrary real
p > 0 the two moment expansions are evaluated here in doubles through
log-gamma, with exact compensated summation (math.fsum) and a cancellation
diagnostic: the raw expansion alternates, so its sum loses roughly
log10(condition number) digits and the pass criterion scales the tolerance
accordingly.

Also here: partial-sum diagnostics for the central-binomial ratio series
(three normalization variants, since the stated form of that series
diverges -- see ``evaluate_series``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .compositions import weak_compositions
from .exact import binomial

__all__ = [
    "FloatVerification",
    "SeriesEvaluation",
    "SERIES_VARIANTS",
    "log_beta",
    "verify_master_float",
    "evaluate_series",
]


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@dataclass(frozen=True)
class FloatVerification:
    """Two-sided float evaluation with a cancellation-aware verdict.

    ``passed`` holds iff rel_diff <= tolerance * max(1, condition_number);
    the condition number is sum(|terms|)/|sum| on the worse side, so an
    ill-conditioned alternating sum is not reported as a false failure.
    """

    lhs: float
    rhs: float
    abs_diff: float
    rel_diff: float
    condition_number: float
    tolerance: float
    passed: bool

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


def _log_multinomial(n: int, parts: Sequence[int]) -> float:
    return math.lgamma(n + 1) - sum(math.lgamma(p + 1) for p in parts)


def verify_master_float(n: int, coeffs: Sequence[float], p: float,
                        tolerance: float = 1e-10) -> FloatVerification:
    """Evaluate both moment expansions in doubles and compare.

    Valid for any real p > 0 and positive weights.  A failed comparison is
    a report, not an exception; a term or sum beyond the double range
    raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not p > 0:
        raise ValueError("p must be > 0")
    coeffs = [float(c) for c in coeffs]
    if not coeffs or any(not c > 0 for c in coeffs):
        raise ValueError("coefficients must be positive")
    k = len(coeffs)
    two_n = 2 * n
    log_bpp = log_beta(p, p)
    c_total = math.fsum(coeffs)

    log_slot = [math.log(2 * c) for c in coeffs]
    log_b_raw = [log_beta(j + p, p) for j in range(two_n + 1)]
    try:
        lhs_terms = []
        for comp in weak_compositions(two_n, k + 1):
            log_t = (_log_multinomial(two_n, comp)
                     + comp[0] * math.log(c_total) - k * log_bpp)
            sign = 1.0
            for s in range(k):
                j = comp[s + 1]
                log_t += j * log_slot[s] + log_b_raw[j]
                if j & 1:
                    sign = -sign
            lhs_terms.append(sign * math.exp(log_t))
        lhs = math.fsum(lhs_terms)
        lhs_mass = math.fsum(abs(t) for t in lhs_terms)

        log_c = [math.log(c) for c in coeffs]
        log_b_even = [log_beta(i + 0.5, p) for i in range(n + 1)]
        scale = k * ((2 * p - 1) * math.log(2.0) + log_bpp)
        rhs_terms = []
        for comp in weak_compositions(n, k):
            log_t = _log_multinomial(two_n, [2 * i for i in comp]) - scale
            for s, i in enumerate(comp):
                log_t += 2 * i * log_c[s] + log_b_even[i]
            rhs_terms.append(math.exp(log_t))
        rhs = math.fsum(rhs_terms)
        rhs_mass = math.fsum(rhs_terms)
    except OverflowError:
        raise ValueError(f"float evaluation at n={n} exceeds the double "
                         "range (overflow)") from None

    abs_diff = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs))
    rel_diff = abs_diff / denom if denom > 0 else (0.0 if abs_diff == 0 else math.inf)
    condition = 1.0
    if lhs != 0:
        condition = max(condition, lhs_mass / abs(lhs))
    if rhs != 0:
        condition = max(condition, rhs_mass / abs(rhs))
    passed = rel_diff <= tolerance * max(1.0, condition)
    return FloatVerification(lhs, rhs, abs_diff, rel_diff, condition,
                             tolerance, passed)


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

SERIES_VARIANTS = ("printed", "over-k-factorial", "over-k-factorial-squared")

_CONVERGE_WINDOW = 8   # trailing terms that must be nonincreasing
_DIVERGE_WINDOW = 16   # consecutive term increases before giving up


@dataclass(frozen=True)
class SeriesEvaluation:
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

    def to_json_obj(self, list_cap: int = 200) -> dict:
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
            if len(values) <= list_cap:
                obj[key] = list(values)
            else:
                obj[key] = {"head": list(values[:list_cap - 5]),
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
    raise ValueError(f"unknown series variant {variant!r}; "
                     f"expected one of {SERIES_VARIANTS}")


def evaluate_series(n: int, variant: str, max_terms: int = 10 ** 6,
                    cutoff: float = 1e-12,
                    exact_window: int = 4096) -> SeriesEvaluation:
    """Accumulate the series for one normalization variant.

    The first ``exact_window`` terms and partial sums are exact rationals
    rendered to floats (term sizes grow with the index, so the tail beyond
    the window advances in floats via the exact integer term ratio).
    Exhausting ``max_terms`` without meeting the convergence rule reports
    converged=False; it never raises.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
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
            exact_terms.append(
                f"{term_exact.numerator}/{term_exact.denominator}")
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
            if k + 1 >= exact_window:
                term_float = float(term_exact)
                sum_float = float(sum_exact)
                term_exact = None
        else:
            term_float *= num / den

    if not converged and not diverged and len(terms) >= _DIVERGE_WINDOW:
        diverged = increases >= _DIVERGE_WINDOW

    target = Fraction(binomial(2 * n, n) ** 2, 4 ** (2 * n))
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
