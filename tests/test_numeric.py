import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betawalk.moments import verify_master
from betawalk import numeric
from betawalk.numeric import (
    FLOAT_WORK_BUDGET,
    SERIES_VARIANTS,
    evaluate_series,
    verify_master_float,
)
from betawalk.render import SERIES_MAX_TERMS, InputError

from compositions import pochhammer


def series_term_oracle(n: int, k: int, variant: str) -> Fraction:
    """Independent exact term: rising factorials, no recurrence."""
    value = pochhammer(Fraction(1, 2), k) ** 2 / pochhammer(
        Fraction(2 * n + 1, 2), k + 1)
    if variant == "over-k-factorial":
        value /= math.factorial(k)
    elif variant == "over-k-factorial-squared":
        value /= math.factorial(k) ** 2
    return value


def test_verify_master_float_against_quadrature_oracle():
    mpmath = pytest.importorskip("mpmath")
    n, p = 2, 0.3
    with mpmath.workdps(40):
        pf = mpmath.mpf("0.3")
        integral = mpmath.quad(
            lambda x: (2 * x - 1) ** (2 * n) * x ** (pf - 1)
            * (1 - x) ** (pf - 1), [0, 0.5, 1])
        oracle = float(integral / mpmath.beta(pf, pf))
    result = verify_master_float(n, [1.0], p)
    assert result.passed
    assert result.lhs == pytest.approx(oracle, rel=1e-10)
    assert result.rhs == pytest.approx(oracle, rel=1e-12)


def test_verify_master_float_known_exact_values():
    result = verify_master_float(1, [1.0], 1.0)
    assert result.passed
    assert result.rhs == pytest.approx(1 / 3, rel=1e-13)

    result = verify_master_float(3, [0.5, 0.5], 0.5)
    assert result.passed
    exact = verify_master(3, [Fraction(1, 2)] * 2, "1/2").rhs
    assert exact.coeff == Fraction(25, 256)
    assert result.rhs == pytest.approx(float(exact), rel=1e-13)
    assert result.lhs == pytest.approx(float(exact), rel=1e-9)


def test_verify_master_float_calibration_subgrid():
    # well-conditioned side must match bit-exact values to 1e-12
    for n in (1, 2, 3):
        for p in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for coeffs in ([Fraction(1)], [Fraction(1), Fraction(2)]):
                exact = float(verify_master(n, coeffs, p).rhs)
                fv = verify_master_float(n, [float(c) for c in coeffs],
                                         float(p))
                assert fv.passed
                assert abs(fv.rhs - exact) / exact <= 1e-12


def test_verify_master_float_general_p_points():
    for p in (0.3, 0.7, 2.4):
        for coeffs in ([1.0], [1.0, 2.0]):
            for n in (1, 2, 3, 4):
                assert verify_master_float(n, coeffs, p).passed


def test_verify_master_float_pass_rule_is_condition_scaled():
    fv = verify_master_float(4, [1.0, 1.0, 1.0], 0.5)
    scaled = fv.tolerance * fv.condition_number
    assert fv.passed == (scaled < 1 and fv.rel_diff <= scaled)
    assert fv.inconclusive == (scaled >= 1)
    assert fv.condition_number >= 1.0
    assert fv.abs_diff == abs(fv.lhs - fv.rhs)


def test_verify_master_float_cancellation_is_inconclusive():
    # the alternating side loses every digit: its lhs is off by orders of
    # magnitude, and the condition number, taken against the positive rhs,
    # says so
    fv = verify_master_float(25, [1.0, 1.0, 1.0], 0.7)
    exact = float(verify_master(25, [1, 1, 1], Fraction(7, 10)).lhs)
    assert fv.rhs == pytest.approx(exact, rel=1e-13)
    assert fv.tolerance * fv.condition_number >= 1
    assert fv.inconclusive and not fv.passed


@settings(max_examples=60, deadline=None)
@given(p_hundredths=st.integers(30, 250),
       weights=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       n=st.integers(1, 12))
def test_float_verdict_is_honest_against_the_exact_value(p_hundredths,
                                                          weights, n):
    # decimal p and weights as typed are exact rationals, so the exact
    # engine gives the true value of both sides
    p_text = f"{p_hundredths / 100:.2f}"
    coeffs = [Fraction(w, 10) for w in weights]
    fv = verify_master_float(n, [float(c) for c in coeffs], float(p_text))
    scaled = fv.tolerance * fv.condition_number
    assert not (fv.passed and scaled >= 1)
    assert fv.inconclusive == (scaled >= 1)
    if fv.passed:
        exact = float(verify_master(n, coeffs, Fraction(p_text)).lhs)
        assert abs(fv.lhs - exact) <= scaled * exact
        assert abs(fv.rhs - exact) <= scaled * exact


def test_verify_master_float_rounding_floor():
    fv = verify_master_float(1, [1.0, 2.0, 3.0], 0.7, tolerance=0.0)
    assert fv.rounding_bound == 16 * (1 + 3) * 2.0 ** -53
    assert 0 < fv.rel_diff <= fv.rounding_bound * fv.condition_number
    assert fv.inconclusive and not fv.passed
    # above the rounding floor the tolerance decides, as before
    assert verify_master_float(1, [1.0, 2.0, 3.0], 0.7).passed
    # a difference beyond tolerance and floor is a violation
    fv = fv._replace(rel_diff=1e-10)
    assert not fv.inconclusive and not fv.passed


@settings(max_examples=60, deadline=None)
@given(p_hundredths=st.integers(5, 550),
       weights=st.lists(st.integers(1, 70), min_size=1, max_size=6),
       n=st.integers(1, 40))
def test_float_verdict_at_zero_tolerance_never_violated(p_hundredths,
                                                         weights, n):
    # the identity holds for the doubles as given, so at any tolerance a
    # record is passed or inconclusive, never violated
    coeffs = [w / 10 for w in weights]
    try:
        fv = verify_master_float(n, coeffs, p_hundredths / 100,
                                 tolerance=0.0)
    except ValueError:  # beyond the double range
        return
    assert fv.passed or fv.inconclusive


def test_verify_master_float_validation():
    with pytest.raises(ValueError):
        verify_master_float(0, [1.0], 1.0)
    with pytest.raises(ValueError):
        verify_master_float(1, [1.0], 0.0)
    with pytest.raises(ValueError):
        verify_master_float(1, [], 1.0)
    with pytest.raises(ValueError):
        verify_master_float(1, [0.0], 1.0)


def _moment_product_by_comb(factors):
    """The binomial convolution with each C(d, i) from math.comb, term by
    term: the shared double rows must give the very same doubles."""
    product = factors[0]
    for factor in factors[1:]:
        product = [math.fsum(math.comb(d, i) * product[i] * factor[d - i]
                             for i in range(d + 1))
                   for d in range(len(product))]
    return product


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60).flatmap(lambda length: st.lists(
    st.lists(st.floats(-1e30, 1e30), min_size=length, max_size=length),
    min_size=1, max_size=5)))
def test_moment_product_equals_the_comb_convolution(factors):
    rows = numeric._binomial_rows(len(factors[0]))
    assert numeric._moment_product(factors, rows) == \
        _moment_product_by_comb(factors)


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
def test_verify_master_float_refuses_a_bad_tolerance(tolerance):
    with pytest.raises(InputError, match="--tolerance must be finite"):
        verify_master_float(2, [1.0, 2.0], 0.7, tolerance=tolerance)


def _float_charge(n, k):
    return k * (2 * n + 1) * (n + 9)


def test_float_budget_holds_at_its_edge(monkeypatch):
    # the constant's edge at n = 10, asked without building a weight
    last = FLOAT_WORK_BUDGET // _float_charge(10, 1)
    assert last == 10025
    numeric._check_terms(10, last)
    with pytest.raises(InputError, match="float record at n=10, k=10026"):
        numeric._check_terms(10, last + 1)
    # a whole record at an edge small enough to run: the last admitted k
    # gives a verdict, the next is refused before any series exists
    monkeypatch.setattr(numeric, "FLOAT_WORK_BUDGET", _float_charge(3, 5))
    assert verify_master_float(3, [1.0] * 5, 0.5).passed
    monkeypatch.setattr(numeric, "_binomial_rows", None)  # never reached
    with pytest.raises(InputError, match=f"float record at n=3, k=6 needs "
                                         f"about {_float_charge(3, 6)} terms"):
        verify_master_float(3, [1.0] * 6, 0.5)


def test_series_terms_match_rising_factorial_oracle():
    for variant in SERIES_VARIANTS:
        for n in (0, 1, 3):
            run = evaluate_series(n, variant, max_terms=12)
            for k, text in enumerate(run.exact_terms):
                num, den = text.split("/")
                assert Fraction(int(num), int(den)) == series_term_oracle(
                    n, k, variant)


def test_series_printed_variant_diverges():
    run = evaluate_series(0, "printed")
    assert not run.converged
    assert run.diverged
    assert run.exact_terms[0] == "2/1"  # first term exactly 2
    assert run.exact_terms[1] == "1/3"
    # term growth is visible in the report
    assert run.terms[-1] > run.terms[2]
    assert run.terms[5] > run.terms[4] > run.terms[3] > run.terms[2]


def test_series_over_k_factorial_squared_converges_off_target():
    run = evaluate_series(0, "over-k-factorial-squared")
    assert run.converged and not run.diverged
    assert run.partial_sums[2] == pytest.approx(2.4083, abs=1e-3)
    assert run.partial_sums[3] == pytest.approx(2.4232, abs=1e-3)
    plateau = math.fsum(float(series_term_oracle(0, k,
                                                 "over-k-factorial-squared"))
                        for k in range(40))
    assert run.partial_sums[-1] == pytest.approx(plateau, rel=1e-10)
    # plateau is clearly short of pi * target
    assert abs(run.limit_estimate - run.target) > 0.2


def test_series_over_k_factorial_approaches_target_slowly():
    run = evaluate_series(0, "over-k-factorial", max_terms=20_000)
    assert not run.converged and not run.diverged
    assert run.terms[-1] < run.terms[2]  # still decaying, above cutoff
    assert 0.9 < run.limit_estimate < run.target == 1.0
    shorter = evaluate_series(0, "over-k-factorial", max_terms=2_000)
    assert shorter.limit_estimate < run.limit_estimate  # still rising
    # Gauss's 2F1(a, b; c; 1) theorem sums the series to pi; its terms decay
    # like k^(-3/2) / sqrt(pi), so the terms left out after the first K, over
    # pi, add up to 2 / (pi^(3/2) sqrt(K)) to leading order
    for evaluation, k in ((shorter, 2_000), (run, 20_000)):
        tail = evaluation.target - evaluation.limit_estimate
        assert tail == pytest.approx(2 / (math.pi ** 1.5 * math.sqrt(k)),
                                     rel=1e-4)


def test_series_partial_sums_monotone_nondecreasing():
    for variant in SERIES_VARIANTS:
        run = evaluate_series(1, variant, max_terms=300)
        assert all(a <= b for a, b in
                   zip(run.partial_sums, run.partial_sums[1:]))


def test_series_float_tail_tracks_exact_oracle(monkeypatch):
    monkeypatch.setattr(numeric, "_EXACT_WINDOW", 4)
    run = evaluate_series(2, "over-k-factorial", max_terms=40)
    assert len(run.exact_terms) == 4
    for k in range(4, len(run.terms)):
        oracle = float(series_term_oracle(2, k, "over-k-factorial"))
        assert run.terms[k] == pytest.approx(oracle, rel=1e-12)


def test_series_json_caps_long_lists(monkeypatch):
    monkeypatch.setattr(numeric, "_LIST_CAP", 50)
    run = evaluate_series(0, "over-k-factorial", max_terms=500)
    obj = run.to_json_obj()
    assert obj["terms"]["count"] == 500
    assert len(obj["terms"]["head"]) == 45
    assert len(obj["terms"]["tail"]) == 5
    small = evaluate_series(0, "over-k-factorial", max_terms=10)
    assert isinstance(small.to_json_obj()["terms"], list)


def test_series_validation():
    with pytest.raises(ValueError):
        evaluate_series(-1, "printed")
    with pytest.raises(ValueError):
        evaluate_series(0, "bogus")
    with pytest.raises(ValueError):
        evaluate_series(0, "printed", max_terms=0)
    with pytest.raises(InputError, match="max_terms must be at most"):
        evaluate_series(0, "printed", max_terms=SERIES_MAX_TERMS + 1)
