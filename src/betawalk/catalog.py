"""Registry of the standalone identities, each with an exact verifier.

Some identities circulate in a defective stated form (a wrong summation
limit, a wrong per-factor coefficient, a mislabeled shape parameter).  For
those the catalog keeps BOTH variants: the corrected form is what gets
verified over the declared parameter range, and the stated form is retained
together with a machine-reproducible counterexample.  Nothing is silently
substituted; reports and the CLI flag every correction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator, NamedTuple, Optional

from .exact import PiRational, as_fraction, beta_half, gamma_half
from .moments import (UPPER_LIMIT_NOTE, IdentityReport, _egf, _raw_moments,
                      _series_coefficient, verify_master)
from .render import InputError
from .walks import closed_form_2d, return_probability

__all__ = [
    "CatalogEntry",
    "CATALOG",
    "verify_convolution",
    "verify_alternating",
    "verify_one_dim_general_p",
    "verify_two_dim_remark",
    "verify_three_dim_remark",
    "verify_k_dim_remark",
    "verify_vandermonde",
    "verify_duplication",
]


class CatalogEntry(NamedTuple):
    """One named identity with its verifier and declared range.

    An entry that keeps a counterexample callable, reproducing the stated
    form's failure, is the "corrected" variant and carries the erratum
    text; any other is "printed".
    """

    name: str
    location: str
    parameter_range: str
    run: Callable[[], Iterator[IdentityReport]]
    erratum: Optional[str] = None
    counterexample: Optional[Callable[[], IdentityReport]] = None

    @property
    def variant(self) -> str:
        """"corrected" if the entry keeps a counterexample, else "printed"."""
        return "printed" if self.counterexample is None else "corrected"


def _report(name: str, parameters: dict, lhs: PiRational, rhs: PiRational,
            notes: tuple[str, ...] = (),
            variant: str = "corrected") -> IdentityReport:
    params = {"variant": variant, **parameters}
    return IdentityReport(
        identity_name=name,
        parameters={k: str(v) for k, v in params.items()},
        lhs=lhs,
        rhs=rhs,
        verified=lhs == rhs,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# convolution of central binomials:  sum_{j=0}^{n} C(2j,j) C(2n-2j,n-j) = 4^n
# ---------------------------------------------------------------------------

_CONVOLUTION_ERRATUM = (
    "stated lower summation index 1 drops the j=0 term; the sum must "
    "start at 0 (n=1: starting at 1 gives 2, not 4)"
)


def verify_convolution(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    corrected = sum(comb(2 * j, j) * comb(2 * n - 2 * j, n - j)
                    for j in range(n + 1))
    printed = corrected - comb(2 * n, n)  # lower index 1
    return _report(
        "convolution",
        {"n": n, "printedSum": printed},
        PiRational(corrected),
        PiRational(4 ** n),
        notes=(_CONVOLUTION_ERRATUM,),
    )


def _convolution_counterexample() -> IdentityReport:
    n = 1
    printed = sum(comb(2 * j, j) * comb(2 * n - 2 * j, n - j)
                  for j in range(1, n + 1))
    return _report(
        "convolution",
        {"n": n},
        PiRational(printed),
        PiRational(4 ** n),
        notes=(_CONVOLUTION_ERRATUM,),
        variant="printed",
    )


# ---------------------------------------------------------------------------
# alternating form:  sum_{j=0}^{2n} (-1)^j C(2n,j) C(2j,j) / 2^j = C(2n,n)/4^n
# ---------------------------------------------------------------------------


def _alternating_sum(n: int, upper: int) -> Fraction:
    return Fraction(sum((-1) ** j * comb(2 * n, j) * comb(2 * j, j)
                        << (upper - j) for j in range(upper + 1)),
                    1 << upper)


def verify_alternating(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    return _report(
        "alternating",
        {"n": n, "printedSum": _alternating_sum(n, n)},
        PiRational(_alternating_sum(n, 2 * n)),
        PiRational(Fraction(comb(2 * n, n), 4 ** n)),
        notes=(UPPER_LIMIT_NOTE,),
    )


def _alternating_counterexample() -> IdentityReport:
    n = 1
    return _report(
        "alternating",
        {"n": n},
        PiRational(_alternating_sum(n, n)),
        PiRational(Fraction(comb(2 * n, n), 4 ** n)),
        notes=(UPPER_LIMIT_NOTE,),
        variant="printed",
    )


# ---------------------------------------------------------------------------
# one-variable reduction at general half-integer shape:
#   sum_{j=0}^{2n} C(2n,j) (-2)^j B(j+p, p) = B(n+1/2, p) / 2^(2p-1)
# the left side as B(p, p) sum_j C(2n,j) (-2)^j m_j: B(j+p, p) = B(p, p) m_j
# ---------------------------------------------------------------------------


def _one_dim_sides(n: int, p: Fraction, upper: int
                   ) -> tuple[PiRational, PiRational]:
    beta = beta_half(p, p)  # refuses a p that is not a positive half-integer
    total = sum(comb(2 * n, j) * (-2) ** j * m
                for j, m in enumerate(_raw_moments(p, upper + 1)))
    return beta * total, beta_half(n + Fraction(1, 2), p) / 2 ** (2 * p - 1)


def verify_one_dim_general_p(n: int, p) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    p = as_fraction(p)
    lhs, rhs = _one_dim_sides(n, p, 2 * n)
    return _report("one-dim-general-p", {"n": n, "p": p}, lhs, rhs,
                   notes=(UPPER_LIMIT_NOTE,))


def _one_dim_counterexample() -> IdentityReport:
    n, p = 1, Fraction(1, 2)
    lhs, rhs = _one_dim_sides(n, p, n)
    return _report("one-dim-general-p", {"n": n, "p": p}, lhs, rhs,
                   notes=(UPPER_LIMIT_NOTE,), variant="printed")


# ---------------------------------------------------------------------------
# the two-, three- and k-variable arcsine remarks are one sum:
#   sum over j1+..+j_{k+1} = 2n of multi(2n;j)
#       * prod_s a^(j_{s+1}) C(2j_{s+1}, j_{s+1})
#   = (2n)! [x^2n] e^x * (sum_j a^j C(2j,j) x^j / j!)^k
# whose correct per-factor coefficient is a = -1/(2k); the coefficient is
# read off the truncated series product, the k-th power raised by
# recurrence, in O(n^2) operations whatever k is
# ---------------------------------------------------------------------------


def _k_dim_sum(n: int, k: int, slot_coeff: Fraction) -> PiRational:
    two_n = 2 * n
    exp_series = _egf(Fraction(1), [1] * (two_n + 1), 1)
    slot = _egf(slot_coeff, [comb(2 * j, j) for j in range(two_n + 1)], 1)
    return PiRational(factorial(two_n)
                      * _series_coefficient([(exp_series, 1), (slot, k)],
                                            two_n))


# ---------------------------------------------------------------------------
# two-variable remark (arcsine case):
#   sum over j1+j2+j3 = 2n of (-1)^(j2+j3) 4^-(j2+j3) multi(2n;j)
#       * C(2j2,j2) C(2j3,j3)  =  C(2n,n)^2 / 4^(2n)
# ---------------------------------------------------------------------------

_TWO_DIM_ERRATUM = (
    "the remark labels the specialization shape 2, but the displayed "
    "coefficients C(2j,j)/4^j only arise at shape 1/2 (at shape 2 the "
    "n=1 moment is 1/10, not the identity's 1/4)"
)


def verify_two_dim_remark(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    return _report("two-dim-remark", {"n": n, "p": "1/2"},
                   _k_dim_sum(n, 2, Fraction(-1, 4)),
                   PiRational(closed_form_2d(n)),
                   notes=(_TWO_DIM_ERRATUM,))


def _two_dim_counterexample() -> IdentityReport:
    # the stated shape: at p=2 the underlying moment no longer matches
    n = 1
    moment_at_2 = verify_master(n, (Fraction(1, 2), Fraction(1, 2)), 2).rhs
    return _report("two-dim-remark", {"n": n, "p": "2"},
                   moment_at_2, PiRational(closed_form_2d(n)),
                   notes=(_TWO_DIM_ERRATUM,), variant="printed")


# ---------------------------------------------------------------------------
# three-variable remark:
#   sum over j1+..+j4 = 2n of multi(2n;j) (-1/6)^(j2+j3+j4)
#       * C(2j2,j2) C(2j3,j3) C(2j4,j4)
#   = (1/6)^(2n) * sum over i1+i2+i3 = n of (2n)! / (i1! i2! i3!)^2
# ---------------------------------------------------------------------------


def verify_three_dim_remark(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    return _report("three-dim-remark", {"n": n, "p": "1/2"},
                   _k_dim_sum(n, 3, Fraction(-1, 6)),
                   PiRational(return_probability(3, n)))


# ---------------------------------------------------------------------------
# k-variable remark, corrected per-factor coefficient (-1/(2k))^j C(2j,j):
#   sum over j1+..+j_{k+1} = 2n of multi(2n;j)
#       * prod_s (-1/(2k))^(j_{s+1}) C(2j_{s+1}, j_{s+1})
#   = (1/(2k))^(2n) * sum over i1+..+ik = n of (2n)! / prod i_j!^2
# ---------------------------------------------------------------------------

_K_DIM_ERRATUM = (
    "stated per-factor coefficient (-2/k)^j with right side 1/k^(2n) fails "
    "(n=1, k=1: 17 vs 2); substituting equal weights 1/k at shape 1/2 into "
    "the master identity gives (-1/(2k))^j per factor and (1/(2k))^(2n) on "
    "the right"
)


def verify_k_dim_remark(n: int, k: int) -> IdentityReport:
    if n < 1 or k < 1:
        raise InputError("n and k must be >= 1")
    lhs = _k_dim_sum(n, k, Fraction(-1, 2 * k))
    return _report("k-dim-remark", {"n": n, "k": k, "p": "1/2"},
                   lhs, PiRational(return_probability(k, n)),
                   notes=(_K_DIM_ERRATUM,))


def _k_dim_counterexample() -> IdentityReport:
    n, k = 1, 1
    lhs = _k_dim_sum(n, k, Fraction(-2, k))
    rhs = PiRational(return_probability(k, n) * (2 * k) ** (2 * n)
                     / Fraction(k ** (2 * n)))
    return _report("k-dim-remark", {"n": n, "k": k, "p": "1/2"},
                   lhs, rhs, notes=(_K_DIM_ERRATUM,), variant="printed")


# ---------------------------------------------------------------------------
# Vandermonde:  sum_j C(n,j) C(n,n-j) = C(2n,n)
# ---------------------------------------------------------------------------


def verify_vandermonde(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    lhs = sum(comb(n, j) * comb(n, n - j) for j in range(n + 1))
    return _report("vandermonde", {"n": n},
                   PiRational(lhs), PiRational(comb(2 * n, n)))


# ---------------------------------------------------------------------------
# duplication:  Gamma(n+1/2) / Gamma(1/2) = C(2n,n) n! / 4^n
# ---------------------------------------------------------------------------


def verify_duplication(n: int) -> IdentityReport:
    if n < 0:
        raise InputError("n must be >= 0")
    lhs = gamma_half(n + Fraction(1, 2)) / gamma_half(Fraction(1, 2))
    rhs = PiRational(Fraction(comb(2 * n, n) * factorial(n), 4 ** n))
    return _report("duplication", {"n": n}, lhs, rhs, variant="printed")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_HALF_P_GRID = ("1/2", "1", "3/2", "2", "5/2")


CATALOG: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    CatalogEntry(
        name="convolution",
        location="central binomial convolution",
        parameter_range="n <= 50",
        run=lambda: (verify_convolution(n) for n in range(1, 51)),
        erratum=_CONVOLUTION_ERRATUM,
        counterexample=_convolution_counterexample,
    ),
    CatalogEntry(
        name="alternating",
        location="one-variable arcsine reduction, alternating form",
        parameter_range="n <= 50",
        run=lambda: (verify_alternating(n) for n in range(1, 51)),
        erratum=UPPER_LIMIT_NOTE,
        counterexample=_alternating_counterexample,
    ),
    CatalogEntry(
        name="one-dim-general-p",
        location="one-variable reduction at general half-integer shape",
        parameter_range="n <= 12, p in {1/2, 1, 3/2, 2, 5/2}",
        run=lambda: (verify_one_dim_general_p(n, p)
                     for n in range(1, 13) for p in _HALF_P_GRID),
        erratum=UPPER_LIMIT_NOTE,
        counterexample=_one_dim_counterexample,
    ),
    CatalogEntry(
        name="two-dim-remark",
        location="two-variable arcsine reduction remark",
        parameter_range="n <= 12",
        run=lambda: (verify_two_dim_remark(n) for n in range(1, 13)),
        erratum=_TWO_DIM_ERRATUM,
        counterexample=_two_dim_counterexample,
    ),
    CatalogEntry(
        name="three-dim-remark",
        location="three-variable arcsine reduction remark",
        parameter_range="n <= 8",
        run=lambda: (verify_three_dim_remark(n) for n in range(1, 9)),
    ),
    CatalogEntry(
        name="k-dim-remark",
        location="k-variable arcsine reduction remark",
        parameter_range="n <= 6, k <= 4",
        run=lambda: (verify_k_dim_remark(n, k)
                     for n in range(1, 7) for k in range(1, 5)),
        erratum=_K_DIM_ERRATUM,
        counterexample=_k_dim_counterexample,
    ),
    CatalogEntry(
        name="vandermonde",
        location="planar path-count reduction",
        parameter_range="n <= 100",
        run=lambda: (verify_vandermonde(n) for n in range(1, 101)),
    ),
    CatalogEntry(
        name="duplication",
        location="gamma duplication at half-integers",
        parameter_range="n <= 100",
        run=lambda: (verify_duplication(n) for n in range(0, 101)),
    ),
)}
