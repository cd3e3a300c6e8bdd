"""Even moments of weighted sums of centered symmetric-beta variables.

Let X_1..X_k be iid Be(p, p) on [0, 1] and U_i = 2X_i - 1 the centered
copies on [-1, 1].  The 2n-th moment of c_1 U_1 + ... + c_k U_k has two
independent exact expansions, each in one moment sequence of a single
variable:

  raw expansion     sum over weak compositions (j_1..j_{k+1}) of 2n of
                    multi(2n; j) * C^{j_1} * prod_s (-2 c_s)^{j_{s+1}}
                                             * m_{j_{s+1}}
                    where C = c_1 + ... + c_k  (alternating terms)
                    and m_j = E[X^j] = (p)_j / (2p)_j

  even expansion    sum over weak compositions (i_1..i_k) of n
                    of multi(2n; 2i_1..2i_k) * prod_s c_s^{2 i_s} * mu_{i_s}
                    where mu_i = E[U^(2i)] = (1/2)_i / (p + 1/2)_i
                    (all terms positive; odd single-variable moments vanish)

Both sequences are rational for every rational p > 0, so the exact engine
takes any such p.  Each composition sum is one coefficient of a product of
exponential generating functions, one factor per slot, so it is evaluated as
a truncated power-series product in O(k n^2) exact operations instead of
term by term over all C(2n + k, k) compositions.  Each side is built only
from its own sequence: the raw expansion from m_j with alternating signs,
the even expansion from mu_i.

``verify_master`` evaluates both and reports exact equality.  Everything here
is a pure function.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .exact import (
    HalfInt,
    PiRational,
    RationalLike,
    as_fraction,
    beta_half,
    factorial,
)
from .render import InputError

__all__ = [
    "CoefficientVector",
    "IdentityReport",
    "even_moment",
    "lhs_master",
    "rhs_master",
    "verify_master",
    "verify_equal_coeff_form",
]

UPPER_LIMIT_NOTE = (
    "one-variable reduction is summed to 2n; the commonly stated upper "
    "limit n fails (n=1, p=1/2 gives -1 instead of 1/2)"
)


class _CoefficientFields(NamedTuple):
    coeffs: tuple[Fraction, ...]
    total: Fraction


class CoefficientVector(_CoefficientFields):
    """Strictly positive rational weights c_1..c_k with their cached sum.

    Built from the weights alone; ``len`` counts the weights.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[RationalLike]):
        cs = tuple(as_fraction(c) for c in coeffs)
        if not cs:
            raise InputError("at least one coefficient is required")
        if any(c <= 0 for c in cs):
            raise InputError("coefficients must be strictly positive")
        return tuple.__new__(cls, (cs, sum(cs, Fraction(0))))

    @classmethod
    def of(cls, values: Union["CoefficientVector", Iterable[RationalLike]]
           ) -> "CoefficientVector":
        if isinstance(values, CoefficientVector):
            return values
        return cls(tuple(values))

    def __len__(self) -> int:
        return len(self.coeffs)


class IdentityReport(NamedTuple):
    """Outcome of one exact identity check.

    In exact mode ``verified`` holds iff lhs and rhs are identical
    PiRational values.
    """

    identity_name: str
    parameters: dict[str, str]
    lhs: PiRational
    rhs: PiRational
    verified: bool
    mode: str = "exact"
    elapsed: float = 0.0
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity_name,
            "parameters": dict(self.parameters),
            "lhs": self.lhs.to_json_obj(),
            "rhs": self.rhs.to_json_obj(),
            "verified": self.verified,
            "mode": self.mode,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# the two moment sequences
# ---------------------------------------------------------------------------


def _shape(p) -> Fraction:
    """The beta shape as an exact rational; any p > 0 is accepted."""
    p = as_fraction(p)
    if not p > 0:
        raise InputError("p must be > 0")
    return p


def _ratio_sequence(a: Fraction, b: Fraction, count: int) -> list[Fraction]:
    """(a)_j / (b)_j for j = 0..count-1, each from the last by one ratio."""
    seq = [Fraction(1)]
    for j in range(count - 1):
        seq.append(seq[-1] * (a + j) / (b + j))
    return seq


def _raw_moments(p: Fraction, count: int) -> list[Fraction]:
    """m_j = E[X^j] = (p)_j / (2p)_j for X ~ Be(p, p), j = 0..count-1."""
    return _ratio_sequence(p, 2 * p, count)


def _even_moments(p: Fraction, count: int) -> list[Fraction]:
    """mu_i = E[U^(2i)] = (1/2)_i / (p + 1/2)_i, i = 0..count-1."""
    return _ratio_sequence(Fraction(1, 2), p + Fraction(1, 2), count)


def even_moment(n: int, p) -> PiRational:
    """E[U^(2n)] = (1/2)_n / (p + 1/2)_n, exactly (sqrt(pi) exponent 0)."""
    if n < 1:
        raise InputError("n must be >= 1")
    return PiRational(_even_moments(_shape(p), n + 1)[n])


# ---------------------------------------------------------------------------
# the two expansions
# ---------------------------------------------------------------------------


def _series_coefficient(factors: Sequence[Sequence[Fraction]],
                        degree: int) -> Fraction:
    """[x^degree] of the product of power series.

    Each factor lists its coefficients of x^0..x^degree; the running product
    is truncated at x^degree, so the cost is O(len(factors) * degree^2).
    """
    product = factors[0]
    for factor in factors[1:]:
        product = [sum(product[i] * factor[d - i] for i in range(d + 1))
                   for d in range(degree + 1)]
    return product[degree]


def _lhs(n: int, coeffs: Sequence[Fraction], p: Fraction) -> Fraction:
    """The raw side, (2n)! [x^2n] e^(Cx) prod_s sum_j (-2c_s)^j m_j x^j/j!.

    Tolerates zero coefficients (0^0 = 1 makes the slot's factor 1), which
    realizes dimension shrinking without a separate formula.
    """
    two_n = 2 * n
    c_total = sum(coeffs, Fraction(0))
    m = _raw_moments(p, two_n + 1)
    factors = [[Fraction(c_total ** j, factorial(j)) for j in range(two_n + 1)]]
    for c in coeffs:
        factors.append([(-2 * c) ** j * m[j] / factorial(j)
                        for j in range(two_n + 1)])
    return factorial(two_n) * _series_coefficient(factors, two_n)


def _rhs(n: int, coeffs: Sequence[Fraction], p: Fraction) -> Fraction:
    """The even side, (2n)! [x^n] prod_s sum_i c_s^(2i) mu_i x^i/(2i)!."""
    mu = _even_moments(p, n + 1)
    factors = [[c ** (2 * i) * mu[i] / factorial(2 * i)
                for i in range(n + 1)] for c in coeffs]
    return factorial(2 * n) * _series_coefficient(factors, n)


def lhs_master(n: int, coeffs, p) -> PiRational:
    """E[(sum c_i U_i)^(2n)] by the raw (alternating) expansion."""
    if n < 1:
        raise InputError("n must be >= 1")
    return PiRational(_lhs(n, CoefficientVector.of(coeffs).coeffs, _shape(p)))


def rhs_master(n: int, coeffs, p) -> PiRational:
    """E[(sum c_i U_i)^(2n)] by the even-moment expansion."""
    if n < 1:
        raise InputError("n must be >= 1")
    return PiRational(_rhs(n, CoefficientVector.of(coeffs).coeffs, _shape(p)))


def _master_parameters(n: int, c: CoefficientVector, p: Fraction) -> dict:
    return {
        "n": str(n),
        "k": str(len(c)),
        "p": str(p),
        "coeffs": ",".join(str(x) for x in c.coeffs),
    }


def verify_master(n: int, coeffs, p) -> IdentityReport:
    """Check the two expansions against each other, bit-exactly.

    A failed comparison is reported, never raised.  The floating-point
    check for arbitrary real p > 0 is ``numeric.verify_master_float``.
    """
    c = CoefficientVector.of(coeffs)
    p = _shape(p)
    start = time.perf_counter()
    lhs = lhs_master(n, c, p)
    rhs = rhs_master(n, c, p)
    elapsed = time.perf_counter() - start
    return IdentityReport(
        identity_name="master",
        parameters=_master_parameters(n, c, p),
        lhs=lhs,
        rhs=rhs,
        verified=lhs == rhs,
        mode="exact",
        elapsed=elapsed,
    )


def verify_equal_coeff_form(n: int, k: int, p) -> IdentityReport:
    """Check the coefficient-free symmetric form and its scale invariance.

    With all weights equal the identity loses its constants: the sides are
    reported as stated, unnormalized (weight 1, times B(p,p)^k, so they
    carry their powers of pi), which needs a half-integer p.  On top of
    that the full check must scale by exactly c^(2n) for c in
    {1/4, 1, 7/3}; the weight-1 check is the base call itself.
    """
    if n < 1 or k < 1:
        raise InputError("n and k must be >= 1")
    half = HalfInt.of(p)
    p = half.as_fraction()
    start = time.perf_counter()
    base = verify_master(n, (Fraction(1),) * k, p)
    verified = base.verified
    for c in (Fraction(1, 4), Fraction(7, 3)):
        rep = verify_master(n, (c,) * k, p)
        scale = PiRational(c ** (2 * n))
        verified = (verified and rep.verified
                    and rep.lhs == base.lhs * scale
                    and rep.rhs == base.rhs * scale)
    norm = beta_half(half, half) ** k
    elapsed = time.perf_counter() - start
    return IdentityReport(
        identity_name="equal-coeff",
        parameters={"n": str(n), "k": str(k), "p": str(p)},
        lhs=base.lhs * norm,
        rhs=base.rhs * norm,
        verified=verified,
        mode="exact",
        elapsed=elapsed,
        notes=("scale invariance checked for equal weights in {1/4, 1, 7/3}",),
    )
