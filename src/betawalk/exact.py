"""Exact arithmetic: big rationals, powers of sqrt(pi), half-integer gamma/beta.

Gamma at a positive half-odd argument is a rational multiple of sqrt(pi)
(duplication formula: Gamma(n + 1/2) = (2n)!/(4^n n!) * sqrt(pi)) and gamma at
a positive integer is a plain factorial, so every gamma/beta value needed here
has the exact shape q * pi^(e/2) with q rational and e an integer.
``PiRational`` stores that pair; nothing here rounds, or keeps a cache.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, pi
from typing import NamedTuple, Union

from .render import InputError, fraction_str, int_str

RationalLike = Union[int, Fraction, str]

__all__ = [
    "PiRational",
    "as_fraction",
    "gamma_half",
    "beta_half",
]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "a/b" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


# ---------------------------------------------------------------------------
# rational multiples of integer powers of sqrt(pi)
# ---------------------------------------------------------------------------


class _PiRationalFields(NamedTuple):
    coeff: Fraction
    sqrt_pi_pow: int = 0


class PiRational(_PiRationalFields):
    """An exact value coeff * pi^(sqrt_pi_pow / 2).

    The exponent is kept in units of sqrt(pi) because Gamma(1/2) = sqrt(pi)
    makes that the natural atom.  Zero is canonical: coeff == 0 forces the
    exponent to 0, so equality is plain field equality.  The values are
    closed under multiplication, division and integer powers.
    """

    __slots__ = ()
    # no addition: a sum would leave the closure, and tuple concatenation
    # must not stand in for one
    __add__ = None

    def __new__(cls, coeff: RationalLike, sqrt_pi_pow: int = 0):
        if not isinstance(coeff, Fraction):
            coeff = as_fraction(coeff)
        return tuple.__new__(cls, (coeff, sqrt_pi_pow if coeff else 0))

    def __mul__(self, other: Union["PiRational", RationalLike]) -> "PiRational":
        if isinstance(other, PiRational):
            return PiRational(self.coeff * other.coeff,
                              self.sqrt_pi_pow + other.sqrt_pi_pow)
        return PiRational(self.coeff * as_fraction(other), self.sqrt_pi_pow)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["PiRational", RationalLike]) -> "PiRational":
        if isinstance(other, PiRational):
            return PiRational(self.coeff / other.coeff,
                              self.sqrt_pi_pow - other.sqrt_pi_pow)
        return PiRational(self.coeff / as_fraction(other), self.sqrt_pi_pow)

    def __pow__(self, exponent: int) -> "PiRational":
        if not isinstance(exponent, int):
            return NotImplemented
        return PiRational(self.coeff ** exponent, self.sqrt_pi_pow * exponent)

    def __float__(self) -> float:
        return float(self.coeff) * pi ** (self.sqrt_pi_pow / 2.0)

    def __str__(self) -> str:
        c = self.coeff  # rendered as str(Fraction) renders it, by int_str
        text = int_str(c.numerator) if c.denominator == 1 else fraction_str(c)
        if self.sqrt_pi_pow == 0:
            return text
        if self.sqrt_pi_pow == 1:
            tail = "sqrt(pi)"
        elif self.sqrt_pi_pow == 2:
            tail = "pi"
        elif self.sqrt_pi_pow % 2 == 0:
            tail = f"pi^{self.sqrt_pi_pow // 2}"
        else:
            tail = f"pi^({self.sqrt_pi_pow}/2)"
        return f"{text}*{tail}"

    def to_json_obj(self) -> dict:
        return {
            "coeff": fraction_str(self.coeff),
            "sqrtPiPow": self.sqrt_pi_pow,
        }


# ---------------------------------------------------------------------------
# gamma and beta at half-integer arguments
# ---------------------------------------------------------------------------


def gamma_half(a: RationalLike) -> PiRational:
    """Gamma(a) for a positive half-integer a, such as n or n + 1/2, exactly.

    Integer a = m gives (m-1)!; half-odd a = n + 1/2 gives
    (2n)!/(4^n n!) * sqrt(pi) by the duplication formula.  Any other
    argument raises InputError.
    """
    a = as_fraction(a)
    if a <= 0 or a.denominator > 2:
        raise InputError(f"gamma needs a positive half-integer, got {a}")
    if a.denominator == 1:
        return PiRational(factorial(a.numerator - 1))
    n = a.numerator // 2
    return PiRational(Fraction(factorial(2 * n), 4 ** n * factorial(n)), 1)


def beta_half(a: RationalLike, b: RationalLike) -> PiRational:
    """B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for positive half-integers."""
    a, b = as_fraction(a), as_fraction(b)
    return gamma_half(a) * gamma_half(b) / gamma_half(a + b)
