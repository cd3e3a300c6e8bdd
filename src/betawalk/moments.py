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
a truncated power-series product instead of term by term over all
C(2n + k, k) compositions.  Equal weights make equal factors, raised to
their count at once by J.C.P. Miller's recurrence, and the coefficients are
integers over one common denominator, so a side costs O(d n^2) integer
multiply-adds for d distinct weights, whatever k is.  Each side is built
only from its own sequence: the raw expansion from m_j with alternating
signs, the even expansion from mu_i.

``verify_master`` evaluates both and reports exact equality.  Everything here
is a pure function.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .exact import PiRational, as_fraction, beta_half
from .render import InputError, brief, check_work

__all__ = [
    "MOMENT_WORK_BUDGET",
    "IdentityReport",
    "even_moment",
    "verify_master",
    "verify_equal_coeff_form",
]

# the bound on a record's estimated work: about 4 s on a 2-vCPU machine
MOMENT_WORK_BUDGET = 16_000_000

UPPER_LIMIT_NOTE = (
    "one-variable reduction is summed to 2n; the commonly stated upper "
    "limit n fails (n=1, p=1/2 gives -1 instead of 1/2)"
)


class IdentityReport(NamedTuple):
    """Outcome of one exact identity check.

    ``verified`` holds iff lhs and rhs are identical PiRational values.
    """

    identity_name: str
    parameters: dict[str, str]
    lhs: PiRational
    rhs: PiRational
    verified: bool
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity_name,
            "parameters": dict(self.parameters),
            "lhs": self.lhs.to_json_obj(),
            "rhs": self.rhs.to_json_obj(),
            "verified": self.verified,
            "mode": "exact",
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
    """(a)_j / (b)_j for j = 0..count-1, each from the last by one ratio
    (a + j) / (b + j), made in integers and reduced once."""
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    seq = [Fraction(1)]
    for j in range(count - 1):
        last = seq[-1]
        seq.append(Fraction(last.numerator * (an + j * ad) * bd,
                            last.denominator * (bn + j * bd) * ad))
    return seq


def _raw_moments(p: Fraction, count: int) -> list[Fraction]:
    """m_j = E[X^j] = (p)_j / (2p)_j for X ~ Be(p, p), j = 0..count-1."""
    return _ratio_sequence(p, 2 * p, count)


def _even_moments(p: Fraction, count: int) -> list[Fraction]:
    """mu_i = E[U^(2i)] = (1/2)_i / (p + 1/2)_i, i = 0..count-1."""
    return _ratio_sequence(Fraction(1, 2), p + Fraction(1, 2), count)


def even_moment(n: int, p) -> PiRational:
    """E[U^(2n)] = (1/2)_n / (p + 1/2)_n, exactly (sqrt(pi) exponent 0).

    Each of the n ratio steps is charged ``_step_work`` of the value it
    makes, so a moment that telescopes (an integer p leaves p factors)
    stays cheap.  An n whose least charge is over ``MOMENT_WORK_BUDGET``
    raises InputError before the first step; otherwise the first step that
    carries the charge over it does.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    p = _shape(p)
    what = f"even moment at n={brief(n)}"
    check_work(what, n * _step_work(Fraction(1)), MOMENT_WORK_BUDGET)
    half, shift = Fraction(1, 2), p + Fraction(1, 2)
    value, work = Fraction(1), 0
    for j in range(n):
        value = value * (half + j) / (shift + j)
        step = _step_work(value)
        work += step
        if work > MOMENT_WORK_BUDGET:
            check_work(what, work + (n - 1 - j) * step, MOMENT_WORK_BUDGET)
    return PiRational(value)


# ---------------------------------------------------------------------------
# work budget
# ---------------------------------------------------------------------------


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _step_work(value: Fraction) -> int:
    """Charge of one ``even_moment`` ratio step that makes ``value``.

    The step multiplies and divides ``value`` by small rationals, a few
    linear passes over its limbs, and its four Fraction operations cost
    the interpreter about as much as 100 limbs: on a 2-vCPU machine a limb
    takes 0.04-0.06 us and a step on a small value 5.9 us, so
    ``MOMENT_WORK_BUDGET`` is about 1 s of this loop for any p.
    """
    return _bits(value) // 64 + 1 + 100


def _master_work(n: int, k: int, weight_bits: int, p: Fraction) -> int:
    """Estimated cost of both expansions of one master record, in 64-bit
    limb operations, an upper bound on the engine's work.

    The raw side is charged k passes over series of 2n + 1 terms,
    (2n+1)(2n+2)/2 multiply-adds each, and the even side k passes over
    series of n + 1 terms, (n+1)(n+2)/2 each: at most k - 1 passes make a
    power for each group of equal weights and a product for each further
    factor.  A coefficient of degree up to 2n has, in lowest terms, at
    most n * (bits per degree + the bits of 2n) bits; a degree adds
    ``weight_bits``, the bits of the largest weight or of their sum, and
    the bits of p twice (the two Pochhammer symbols of a moment).  A
    multiply-add is charged those limbs plus 24 for the interpreter.  The
    engine's operands are larger, but it takes no gcd per term: on a
    2-vCPU machine records at the budget take 0.03-4 s.
    """
    terms = k * ((2 * n + 1) * (2 * n + 2) + (n + 1) * (n + 2)) // 2
    bits_per_degree = weight_bits + 2 * _bits(p)
    limbs = n * (bits_per_degree + (2 * n).bit_length()) // 64 + 1
    return terms * (limbs + 24)


def _beta_work(p: Fraction, k: int) -> int:
    """Cost of B(p, p)^k at a half-integer p, quadratic in the limbs of the
    larger operand: the gamma values that make B(p, p), the size of (2p)!,
    at most 2p bits(2p) bits, or the power, k times the size of B(p, p).
    That size is charged as the bits of (2p)!; at p = m + 1/2, where
    B(p, p) = pi C(2m, m) / 16^m has at most 6m + 2 bits, as 6m + 2 once
    that is fewer (m >= 2)."""
    two_p = int(2 * p)
    fact_bits = two_p * two_p.bit_length()
    beta_bits = (fact_bits if p.denominator == 1
                 else min(fact_bits, 6 * (two_p // 2) + 2))
    limbs = max(fact_bits, k * beta_bits) // 64 + 1
    return limbs * limbs


# ---------------------------------------------------------------------------
# the two expansions
# ---------------------------------------------------------------------------


def _power(f: list[int], k: int) -> list[int]:
    """f^k truncated to len(f) terms, for integer f with f_0 != 0.

    J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7),
    g_m = (1/(m f_0)) sum_{i=1..m} ((k+1) i - m) f_i g_(m-i),
    costs O(len(f)^2) whatever k is; the division is exact.
    """
    if k == 1:
        return f
    g = [f[0] ** k]
    for m in range(1, len(f)):
        # the terms for i = 1..m: weight (k+1) i - m, f_i, g_(m-i)
        weights = range(k + 1 - m, k * m + 1, k + 1)
        g.append(sum(map(mul, map(mul, weights, f[1:m + 1]), reversed(g)))
                 // (m * f[0]))
    return g


def _egf(ratio: Fraction, seq: Sequence[Fraction], step: int
         ) -> list[Fraction]:
    """The coefficients ratio^i seq_i / (step i)!, each made in integers
    and reduced once; (step i)! is a running product."""
    a, b = ratio.numerator, ratio.denominator
    out, fact = [], 1
    for i, s in enumerate(seq):
        out.append(Fraction(a ** i * s.numerator,
                            b ** i * s.denominator * fact))
        fact *= math.perm(step * (i + 1), step)
    return out


def _series_coefficient(powers: Sequence[tuple[Sequence[Fraction], int]],
                        degree: int) -> Fraction:
    """[x^degree] of the product of f^k over the pairs (f, k) in ``powers``.

    Each f lists its coefficients of x^0..x^degree, with f_0 != 0.  It is
    scaled to integers by the lcm of its denominators and raised by
    ``_power``; the running product is truncated at x^degree, and of the
    last factor only the coefficient read off is formed.  The integer
    result is divided by the product of the scales once, at the end.
    """
    factors, scale = [], 1
    for f, k in powers:
        f_scale = math.lcm(*(c.denominator for c in f))
        factors.append(_power([c.numerator * (f_scale // c.denominator)
                               for c in f], k))
        scale *= f_scale ** k
    *init, last = factors
    product = init[0] if init else [1]
    for factor in init[1:]:
        product = [sum(map(mul, product[:d + 1], factor[d::-1]))
                   for d in range(degree + 1)]
    return Fraction(sum(map(mul, product, reversed(last))), scale)


def _lhs(n: int, coeffs: Sequence[Fraction], p: Fraction) -> Fraction:
    """The raw side, (2n)! [x^2n] e^(Cx) prod_s sum_j (-2c_s)^j m_j x^j/j!.

    Equal weights make one factor, raised to their count.  Tolerates zero
    coefficients (0^0 = 1 makes the slot's factor 1), which realizes
    dimension shrinking without a separate formula.
    """
    two_n = 2 * n
    m = _raw_moments(p, two_n + 1)
    powers = [(_egf(sum(coeffs, Fraction(0)), [1] * (two_n + 1), 1), 1)]
    for c, count in Counter(coeffs).items():
        powers.append((_egf(-2 * c, m, 1), count))
    return math.factorial(two_n) * _series_coefficient(powers, two_n)


def _rhs(n: int, coeffs: Sequence[Fraction], p: Fraction) -> Fraction:
    """The even side, (2n)! [x^n] prod_s sum_i c_s^(2i) mu_i x^i/(2i)!,
    with equal weights as one factor raised to their count."""
    mu = _even_moments(p, n + 1)
    powers = [(_egf(c * c, mu, 2), count)
              for c, count in Counter(coeffs).items()]
    return math.factorial(2 * n) * _series_coefficient(powers, n)


def _check_lengths(n: int, k: int, p: Fraction, weight_bits: int = 0
                   ) -> None:
    """Refuse a master record of k weights whose ``_master_work`` exceeds
    ``MOMENT_WORK_BUDGET``; at ``weight_bits`` 0 that is its series lengths
    alone, asked before the weights are summed, or built at all."""
    check_work(f"master record at n={brief(n)}, k={brief(k)}",
               _master_work(n, k, weight_bits, p), MOMENT_WORK_BUDGET)


def verify_master(n: int, coeffs, p) -> IdentityReport:
    """Check the two expansions against each other, bit-exactly.

    The weights and shape are checked first, then a record over
    ``MOMENT_WORK_BUDGET`` raises InputError before any arithmetic.  A
    failed comparison is reported, never raised.  A decimal p is the
    rational it writes, so the CLI's float mode runs this check too.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    cs = tuple(map(as_fraction, coeffs))
    if not cs:
        raise InputError("at least one coefficient is required")
    if any(c <= 0 for c in cs):
        raise InputError("coefficients must be positive")
    p = _shape(p)
    _check_lengths(n, len(cs), p)
    _check_lengths(n, len(cs), p, max(map(_bits, (*cs, sum(cs)))))
    lhs = PiRational(_lhs(n, cs, p))
    rhs = PiRational(_rhs(n, cs, p))
    return IdentityReport(
        identity_name="master",
        parameters={"n": str(n), "k": str(len(cs)), "p": str(p),
                    "coeffs": ",".join(str(x) for x in cs)},
        lhs=lhs,
        rhs=rhs,
        verified=lhs == rhs,
    )


_EQUAL_WEIGHTS = (Fraction(1), Fraction(1, 4), Fraction(7, 3))


def verify_equal_coeff_form(n: int, k: int, p) -> IdentityReport:
    """Check the coefficient-free symmetric form and its scale invariance.

    With all weights equal the identity loses its constants: the sides are
    reported as stated, unnormalized (weight 1, times B(p,p)^k, so they
    carry their powers of pi), which needs a half-integer p.  Both sides
    are evaluated at the equal weights c in {1, 1/4, 7/3}; the record is
    verified when they agree at weight 1 and each side at weight c is its
    weight-1 value times c^(2n).  The three weights' ``_master_work`` and
    the ``_beta_work`` of B(p,p)^k must fit MOMENT_WORK_BUDGET.
    """
    if n < 1 or k < 1:
        raise InputError("n and k must be >= 1")
    p = _shape(p)
    if p.denominator > 2:
        raise InputError(f"verify equal-coeff prints the unnormalized sides "
                         f"with their powers of pi and needs a half-integer "
                         f"--p, got {brief(p.numerator)}/"
                         f"{brief(p.denominator)}")
    check_work(f"equal-coeff record at n={brief(n)}, k={brief(k)}",
               sum(_master_work(n, k, max(_bits(c), _bits(k * c)), p)
                   for c in _EQUAL_WEIGHTS) + _beta_work(p, k),
               MOMENT_WORK_BUDGET)
    norm = beta_half(p, p) ** k
    sides = [(_lhs(n, (c,) * k, p), _rhs(n, (c,) * k, p))
             for c in _EQUAL_WEIGHTS]
    lhs, rhs = sides[0]  # weight 1
    verified = lhs == rhs and all(
        side == (lhs * c ** (2 * n), rhs * c ** (2 * n))
        for c, side in zip(_EQUAL_WEIGHTS, sides))
    return IdentityReport(
        identity_name="equal-coeff",
        parameters={"n": str(n), "k": str(k), "p": str(p)},
        lhs=norm * lhs,
        rhs=norm * rhs,
        verified=verified,
        notes=("scale invariance checked for equal weights in {1/4, 1, 7/3}",),
    )
