import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betawalk.exact import (
    HalfInt,
    PiRational,
    as_fraction,
    beta_half,
    binomial,
    factorial,
    gamma_half,
)
from betawalk import exact

from compositions import multinomial, pochhammer, weak_compositions


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(12) == 479001600


def test_factorial_matches_math_beyond_cap(monkeypatch):
    monkeypatch.setattr(exact, "_fact_cap", 10)
    monkeypatch.setattr(exact, "_fact_table", [1, 1])
    assert factorial(40) == math.factorial(40)
    assert factorial(9) == math.factorial(9)
    assert exact._fact_table == [math.factorial(m) for m in range(10)]
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(6, 3) == 20
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


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
                    product *= binomial(prefix, part)
                assert multinomial(n, comp) == product


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(2, 4) == 120


def test_half_int_parsing():
    assert HalfInt.of("3/2").doubled == 3
    assert HalfInt.of(2).doubled == 4
    assert HalfInt.of(Fraction(5, 2)).doubled == 5
    with pytest.raises(ValueError):
        HalfInt.of("1/3")
    assert str(HalfInt.of("3/2")) == "3/2"
    assert (HalfInt.of("1/2") + 1).doubled == 3
    assert (HalfInt.of("1/2") + HalfInt.of("1/2")).doubled == 2
    assert HalfInt.of("1/2").as_fraction() == Fraction(1, 2)
    assert not HalfInt.of("1/2").is_integer
    assert HalfInt.of(3).is_integer


def test_gamma_half_values():
    assert gamma_half(HalfInt.of("1/2")) == PiRational(Fraction(1), 1)
    assert gamma_half(HalfInt.of("5/2")) == PiRational(Fraction(3, 4), 1)
    assert gamma_half(HalfInt.of(4)) == PiRational(Fraction(6))
    with pytest.raises(ValueError):
        gamma_half(HalfInt(0))
    with pytest.raises(ValueError):
        gamma_half(HalfInt(-3))


def test_beta_half_values():
    half = HalfInt.of("1/2")
    assert beta_half(half, half) == PiRational(Fraction(1), 2)
    assert beta_half(HalfInt.of("3/2"), half) == PiRational(Fraction(1, 2), 2)
    assert beta_half(HalfInt.of(2), HalfInt.of(1)) == PiRational(Fraction(1, 2))
    with pytest.raises(ValueError):
        beta_half(HalfInt(0), half)


def test_duplication_invariant():
    root = gamma_half(HalfInt(1))
    for n in range(101):
        ratio = gamma_half(HalfInt(2 * n + 1)) / root
        assert ratio.sqrt_pi_pow == 0
        assert ratio.coeff == Fraction(binomial(2 * n, n) * factorial(n), 4 ** n)


def test_beta_symmetry_and_recurrence():
    values = [HalfInt(d) for d in range(1, 41)]  # every half-integer <= 20
    for a in values:
        for b in values:
            assert beta_half(a, b) == beta_half(b, a)
            lhs = beta_half(a + 1, b)
            rhs = beta_half(a, b) * a.as_fraction() / (a + b).as_fraction()
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
    assert zero == PiRational.ZERO
    assert zero + PiRational(Fraction(1, 2), 3) == PiRational(Fraction(1, 2), 3)


def test_pi_rational_addition_requires_equal_power():
    with pytest.raises(ValueError):
        PiRational(Fraction(1), 1) + PiRational(Fraction(1), 2)
    total = PiRational(Fraction(1, 2), 2) + PiRational(Fraction(1, 3), 2)
    assert total == PiRational(Fraction(5, 6), 2)
    diff = PiRational(Fraction(1, 2), 2) - PiRational(Fraction(1, 2), 2)
    assert diff == PiRational.ZERO


def test_pi_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        PiRational(Fraction(1)) / PiRational.ZERO
    with pytest.raises(ZeroDivisionError):
        PiRational(Fraction(1)) / 0


def test_pi_rational_powers_and_float():
    x = PiRational(Fraction(3, 4), 1)
    assert x ** 2 == PiRational(Fraction(9, 16), 2)
    assert x ** 0 == PiRational.ONE
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
