"""Registry of the standalone identities, each with an exact verifier.

Some identities circulate in a defective stated form (a wrong summation
limit, a wrong per-factor coefficient, a mislabeled shape parameter).  Which
ones is decided in one place, the ``_ERRATA`` table (identity name to
erratum text).  For those the catalog keeps BOTH variants: the corrected
form is what gets verified over the declared parameter range, and the
stated form is kept in the identity's registry row, as its sides at n = 1,
a machine-reproducible counterexample.  Nothing is silently substituted:
every report of such an identity carries the erratum as its note, its
range reports read ``variant=corrected`` and its counterexample
``variant=printed``.  Every report of any other identity is ``printed``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator, NamedTuple, Optional

from .exact import PiRational, as_fraction, beta_half, gamma_half
from .moments import (IdentityReport, _egf, _raw_moments, _series_coefficient,
                      verify_master)
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

_UPPER_LIMIT = (
    "one-variable reduction is summed to 2n; the commonly stated upper "
    "limit n fails (n=1, p=1/2 gives -1 instead of 1/2)"
)

# identity name -> what is wrong with its stated form; an identity not
# listed here is verified as stated
_ERRATA = {
    "convolution": (
        "stated lower summation index 1 drops the j=0 term; the sum must "
        "start at 0 (n=1: starting at 1 gives 2, not 4)"),
    "alternating": _UPPER_LIMIT,
    "one-dim-general-p": _UPPER_LIMIT,
    "two-dim-remark": (
        "the remark labels the specialization shape 2, but the displayed "
        "coefficients C(2j,j)/4^j only arise at shape 1/2 (at shape 2 the "
        "n=1 moment is 1/10, not the identity's 1/4)"),
    "k-dim-remark": (
        "stated per-factor coefficient (-2/k)^j with right side 1/k^(2n) "
        "fails (n=1, k=1: 17 vs 2); substituting equal weights 1/k at shape "
        "1/2 into the master identity gives (-1/(2k))^j per factor and "
        "(1/(2k))^(2n) on the right"),
}


class CatalogEntry(NamedTuple):
    """One named identity with its verifier and declared range.

    ``erratum`` is the identity's ``_ERRATA`` text, or None.  An entry with
    an erratum is the "corrected" variant: ``run`` verifies the corrected
    form and ``counterexample`` reproduces the stated form's failure.  Any
    other entry is "printed" and has no counterexample.
    """

    name: str
    location: str
    parameter_range: str
    run: Callable[[], Iterator[IdentityReport]]
    erratum: Optional[str] = None
    counterexample: Optional[Callable[[], IdentityReport]] = None

    @property
    def variant(self) -> str:
        """"corrected" if the entry has an erratum, else "printed"."""
        return "printed" if self.erratum is None else "corrected"


def _report(name: str, parameters: dict, lhs: PiRational, rhs: PiRational,
            stated: bool = False) -> IdentityReport:
    """One check of identity ``name``; ``stated`` marks its stated form.
    The variant and the notes come from ``_ERRATA``."""
    erratum = _ERRATA.get(name)
    variant = "printed" if stated or erratum is None else "corrected"
    params = {"variant": variant, **parameters}
    return IdentityReport(
        identity_name=name,
        parameters={k: str(v) for k, v in params.items()},
        lhs=lhs,
        rhs=rhs,
        verified=lhs == rhs,
        notes=() if erratum is None else (erratum,),
    )


# ---------------------------------------------------------------------------
# convolution of central binomials:  sum_{j=0}^{n} C(2j,j) C(2n-2j,n-j) = 4^n
# ---------------------------------------------------------------------------


def _convolution_sum(n: int, lower: int) -> int:
    return sum(comb(2 * j, j) * comb(2 * n - 2 * j, n - j)
               for j in range(lower, n + 1))


def verify_convolution(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    corrected = _convolution_sum(n, 0)
    printed = corrected - comb(2 * n, n)  # lower index 1
    return _report("convolution", {"n": n, "printedSum": printed},
                   PiRational(corrected), PiRational(4 ** n))


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
    return _report("one-dim-general-p", {"n": n, "p": p},
                   *_one_dim_sides(n, p, 2 * n))


# ---------------------------------------------------------------------------
# the two-, three- and k-variable arcsine remarks are one sum:
#   sum over j1+..+j_{k+1} = 2n of multi(2n;j)
#       * prod_s a^(j_{s+1}) C(2j_{s+1}, j_{s+1})
#   = (2n)! [x^2n] e^x * (sum_j a^j C(2j,j) x^j / j!)^k
# whose correct per-factor coefficient is a = -1/(2k), and whose right side
# is then the walk's return probability
#   (1/(2k))^(2n) * sum over i1+..+ik = n of (2n)! / prod i_j!^2;
# at k = 2 that is C(2n,n)^2 / 4^(2n), at k = 3 the multinomial sum over
# i1+i2+i3 = n.  The coefficient is read off the truncated series product,
# the k-th power raised by recurrence, in O(n^2) operations whatever k is
# ---------------------------------------------------------------------------


def _k_dim_sum(n: int, k: int, slot_coeff: Fraction) -> PiRational:
    two_n = 2 * n
    exp_series = _egf(Fraction(1), [1] * (two_n + 1), 1)
    slot = _egf(slot_coeff, [comb(2 * j, j) for j in range(two_n + 1)], 1)
    return PiRational(factorial(two_n)
                      * _series_coefficient([(exp_series, 1), (slot, k)],
                                            two_n))


def _remark(name: str, shown: dict, k: int, rhs: Fraction) -> IdentityReport:
    """The k-variable remark at n = ``shown["n"]`` and its corrected
    coefficient -1/(2k), against the independent right side ``rhs``."""
    return _report(name, {**shown, "p": "1/2"},
                   _k_dim_sum(shown["n"], k, Fraction(-1, 2 * k)),
                   PiRational(rhs))


def verify_two_dim_remark(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    return _remark("two-dim-remark", {"n": n}, 2, closed_form_2d(n))


def verify_three_dim_remark(n: int) -> IdentityReport:
    if n < 1:
        raise InputError("n must be >= 1")
    return _remark("three-dim-remark", {"n": n}, 3,
                   return_probability(3, n))


def verify_k_dim_remark(n: int, k: int) -> IdentityReport:
    if n < 1 or k < 1:
        raise InputError("n and k must be >= 1")
    return _remark("k-dim-remark", {"n": n, "k": k}, k,
                   return_probability(k, n))


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
    return _report("duplication", {"n": n}, lhs, rhs)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_HALF_P_GRID = ("1/2", "1", "3/2", "2", "5/2")


def _entry(name: str, location: str, parameter_range: str,
           run: Callable[[], Iterator[IdentityReport]],
           stated: Optional[Callable[[], tuple]] = None) -> CatalogEntry:
    """A registry row.  ``stated`` gives the stated form's (parameters,
    lhs, rhs), which its counterexample reports as ``variant=printed``."""
    return CatalogEntry(
        name, location, parameter_range, run, _ERRATA.get(name),
        None if stated is None
        else lambda: _report(name, *stated(), stated=True))


# each run calls its verifier by its module-level name, so a wrapper
# installed on that name sees every report
CATALOG: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    _entry(
        "convolution", "central binomial convolution", "n <= 50",
        lambda: (verify_convolution(n) for n in range(1, 51)),
        # the stated lower index 1
        lambda: ({"n": 1}, PiRational(_convolution_sum(1, 1)),
                 PiRational(4)),
    ),
    _entry(
        "alternating", "one-variable arcsine reduction, alternating form",
        "n <= 50",
        lambda: (verify_alternating(n) for n in range(1, 51)),
        # the stated upper limit n
        lambda: ({"n": 1}, PiRational(_alternating_sum(1, 1)),
                 PiRational(Fraction(comb(2, 1), 4))),
    ),
    _entry(
        "one-dim-general-p",
        "one-variable reduction at general half-integer shape",
        "n <= 12, p in {1/2, 1, 3/2, 2, 5/2}",
        lambda: (verify_one_dim_general_p(n, p)
                 for n in range(1, 13) for p in _HALF_P_GRID),
        # the stated upper limit n, at the arcsine shape
        lambda: ({"n": 1, "p": Fraction(1, 2)},
                 *_one_dim_sides(1, Fraction(1, 2), 1)),
    ),
    _entry(
        "two-dim-remark", "two-variable arcsine reduction remark", "n <= 12",
        lambda: (verify_two_dim_remark(n) for n in range(1, 13)),
        # the stated shape 2: the underlying moment no longer matches
        lambda: ({"n": 1, "p": "2"},
                 verify_master(1, (Fraction(1, 2), Fraction(1, 2)), 2).rhs,
                 PiRational(closed_form_2d(1))),
    ),
    _entry(
        "three-dim-remark", "three-variable arcsine reduction remark",
        "n <= 8",
        lambda: (verify_three_dim_remark(n) for n in range(1, 9)),
    ),
    _entry(
        "k-dim-remark", "k-variable arcsine reduction remark",
        "n <= 6, k <= 4",
        lambda: (verify_k_dim_remark(n, k)
                 for n in range(1, 7) for k in range(1, 5)),
        # the stated coefficient -2/k and right side 1/k^(2n) times
        # (2n)!/n!^2, at n = k = 1
        lambda: ({"n": 1, "k": 1, "p": "1/2"},
                 _k_dim_sum(1, 1, Fraction(-2)), PiRational(comb(2, 1))),
    ),
    _entry(
        "vandermonde", "planar path-count reduction", "n <= 100",
        lambda: (verify_vandermonde(n) for n in range(1, 101)),
    ),
    _entry(
        "duplication", "gamma duplication at half-integers", "n <= 100",
        lambda: (verify_duplication(n) for n in range(0, 101)),
    ),
)}
