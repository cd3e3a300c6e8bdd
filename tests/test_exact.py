import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betawalk.exact import (
    PiRational,
    as_fraction,
    beta_half,
    gamma_half,
)
from betawalk.render import InputError

from compositions import multinomial, pochhammer, weak_compositions


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(6, (2, 2, 2)) == 90
    assert multinomial(4, (2, 1, 1)) == 12
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))
    with pytest.raises(ValueError):
        multinomial(2, (3, -1))


def test_multinomial_equals_binomial_chain():
    # prefix-sum product oracle over every composition of n <= 12, <= 5 parts
    for n in range(13):
        for parts in range(1, 6):
            for comp in weak_compositions(n, parts):
                product, prefix = 1, 0
                for part in comp:
                    prefix += part
                    product *= math.comb(prefix, part)
                assert multinomial(n, comp) == product


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(2, 4) == 120


HALF_INTEGERS = [Fraction(d, 2) for d in range(1, 41)]  # every one <= 20
# SHA-256 of the str() of gamma_half over HALF_INTEGERS, and of beta_half
# over every pair of them, one value a line, pinned from the implementation
# that took its arguments as doubled integers
GAMMA_DIGEST = "0d4ba2538a2c388d1b6fa7b19c4de053de18fbda76e127263e2de04f08e21375"
BETA_DIGEST = "115169b2b93bf70e43e5df2bbb3948985d09042a1f5b3471f163c36088447027"


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


def test_half_integer_arguments_in_every_form():
    # a Fraction, an "a/b" string, and an int where the value is integral
    def forms(a):
        return [a, str(a)] + ([int(a)] if a.denominator == 1 else [])

    for a in HALF_INTEGERS:
        assert len({gamma_half(x) for x in forms(a)}) == 1, a
    assert _digest(gamma_half(str(a)) for a in HALF_INTEGERS) == GAMMA_DIGEST
    assert _digest(beta_half(a, b) for a in HALF_INTEGERS
                   for b in HALF_INTEGERS) == BETA_DIGEST
    assert _digest(beta_half(str(a), str(b)) for a in HALF_INTEGERS
                   for b in HALF_INTEGERS) == BETA_DIGEST
    assert beta_half(2, "1/2") == beta_half(Fraction(2), Fraction(1, 2))


def test_gamma_half_values():
    assert gamma_half(Fraction(1, 2)) == PiRational(Fraction(1), 1)
    assert gamma_half("5/2") == PiRational(Fraction(3, 4), 1)
    assert gamma_half(4) == PiRational(Fraction(6))
    for bad in (0, Fraction(-3, 2), Fraction(1, 3), "5/4"):
        with pytest.raises(InputError):
            gamma_half(bad)
    with pytest.raises(ValueError):
        gamma_half(0)
    with pytest.raises(TypeError):
        gamma_half(0.5)


def test_beta_half_values():
    half = Fraction(1, 2)
    assert beta_half(half, half) == PiRational(Fraction(1), 2)
    assert beta_half("3/2", half) == PiRational(Fraction(1, 2), 2)
    assert beta_half(2, 1) == PiRational(Fraction(1, 2))
    with pytest.raises(ValueError):
        beta_half(0, half)
    with pytest.raises(InputError):
        beta_half(Fraction(1, 3), half)


def test_duplication_invariant():
    root = gamma_half(Fraction(1, 2))
    for n in range(101):
        ratio = gamma_half(n + Fraction(1, 2)) / root
        assert ratio.sqrt_pi_pow == 0
        assert ratio.coeff == Fraction(
            math.comb(2 * n, n) * math.factorial(n), 4 ** n)


def test_beta_symmetry_and_recurrence():
    for a in HALF_INTEGERS:
        for b in HALF_INTEGERS:
            assert beta_half(a, b) == beta_half(b, a)
            lhs = beta_half(a + 1, b)
            rhs = beta_half(a, b) * a / (a + b)
            assert lhs == rhs


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=30)
pi_rationals = st.builds(PiRational, fractions_st,
                         st.integers(min_value=-4, max_value=4))


@given(pi_rationals, pi_rationals, pi_rationals)
@settings(max_examples=200)
def test_pi_rational_multiplication_algebra(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    product = a * b
    assert math.gcd(product.coeff.numerator, product.coeff.denominator) == 1
    assert product.coeff.denominator > 0


def test_pi_rational_canonical_zero():
    zero = PiRational(Fraction(0), 7)
    assert zero.sqrt_pi_pow == 0
    assert zero == PiRational(0)


def test_pi_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        PiRational(Fraction(1)) / PiRational(0)
    with pytest.raises(ZeroDivisionError):
        PiRational(Fraction(1)) / 0


def test_pi_rational_powers_and_float():
    x = PiRational(Fraction(3, 4), 1)
    assert x ** 2 == PiRational(Fraction(9, 16), 2)
    assert x ** 0 == PiRational(1)
    assert float(PiRational(Fraction(1), 2)) == pytest.approx(math.pi)


def test_serialization_forms():
    assert PiRational(Fraction(3, 8)).to_json_obj() == {
        "coeff": "3/8", "sqrtPiPow": 0}
    assert str(PiRational(Fraction(1, 2), 2)) == "1/2*pi"
    assert str(PiRational(Fraction(3, 4), 1)) == "3/4*sqrt(pi)"
    assert str(PiRational(Fraction(5), 0)) == "5"
    assert as_fraction("7/3") == Fraction(7, 3)
    with pytest.raises(TypeError):
        as_fraction(0.5)
