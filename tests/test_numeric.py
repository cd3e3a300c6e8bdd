import math
from fractions import Fraction

import pytest

from betawalk.exact import HalfInt, beta_half, pochhammer
from betawalk.moments import rhs_master, verify_master
from betawalk.numeric import (
    SERIES_VARIANTS,
    evaluate_series,
    log_beta,
    verify_master_float,
)


def series_term_oracle(n: int, k: int, variant: str) -> Fraction:
    """Independent exact term: rising factorials, no recurrence."""
    value = pochhammer(Fraction(1, 2), k) ** 2 / pochhammer(
        Fraction(2 * n + 1, 2), k + 1)
    if variant == "over-k-factorial":
        value /= math.factorial(k)
    elif variant == "over-k-factorial-squared":
        value /= math.factorial(k) ** 2
    return value


def test_log_beta_calibrated_against_exact_half_integers():
    for da in range(1, 101):  # every half-integer argument <= 50
        for db in range(1, 101):
            expected = math.log(float(beta_half(HalfInt(da), HalfInt(db))))
            got = log_beta(da / 2.0, db / 2.0)
            assert math.isclose(got, expected, rel_tol=1e-13, abs_tol=1e-13)


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
    exact = rhs_master(3, [Fraction(1, 2)] * 2, "1/2")
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
    assert fv.passed == (fv.rel_diff
                         <= fv.tolerance * max(1.0, fv.condition_number))
    assert fv.condition_number >= 1.0
    assert fv.abs_diff == abs(fv.lhs - fv.rhs)


def test_verify_master_float_validation():
    with pytest.raises(ValueError):
        verify_master_float(0, [1.0], 1.0)
    with pytest.raises(ValueError):
        verify_master_float(1, [1.0], 0.0)
    with pytest.raises(ValueError):
        verify_master_float(1, [], 1.0)
    with pytest.raises(ValueError):
        verify_master_float(1, [0.0], 1.0)


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


def test_series_partial_sums_monotone_nondecreasing():
    for variant in SERIES_VARIANTS:
        run = evaluate_series(1, variant, max_terms=300)
        assert all(a <= b for a, b in
                   zip(run.partial_sums, run.partial_sums[1:]))


def test_series_float_tail_tracks_exact_oracle():
    run = evaluate_series(2, "over-k-factorial", max_terms=40, exact_window=4)
    assert len(run.exact_terms) == 4
    for k in range(4, len(run.terms)):
        oracle = float(series_term_oracle(2, k, "over-k-factorial"))
        assert run.terms[k] == pytest.approx(oracle, rel=1e-12)


def test_series_json_caps_long_lists():
    run = evaluate_series(0, "over-k-factorial", max_terms=500)
    obj = run.to_json_obj(list_cap=50)
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
