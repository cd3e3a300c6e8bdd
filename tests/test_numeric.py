import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betawalk import numeric
from betawalk.cli import main
from betawalk.moments import verify_master
from betawalk.numeric import SERIES_VARIANTS, evaluate_series
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


# Float mode has no engine of its own: it reads each decimal as the rational
# it writes, runs the exact engine, and shows the sides as doubles.


def float_run(n, coeffs, p):
    """Exit code and JSON payloads of ``verify master --mode float``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "master", "--n", str(n), "--coeffs",
                     ",".join(coeffs), "--p", p, "--mode", "float",
                     "--format", "json"])
    return code, [json.loads(line)["payload"]
                  for line in out.getvalue().splitlines()]


def float_record(n, coeffs, p):
    """The one record of a float-mode run that exits 0."""
    code, (payload,) = float_run(n, coeffs, p)
    assert code == 0
    return payload


def test_verify_master_float_against_quadrature_oracle():
    mpmath = pytest.importorskip("mpmath")
    n = 2
    with mpmath.workdps(40):
        pf = mpmath.mpf("0.3")
        integral = mpmath.quad(
            lambda x: (2 * x - 1) ** (2 * n) * x ** (pf - 1)
            * (1 - x) ** (pf - 1), [0, 0.5, 1])
        oracle = float(integral / mpmath.beta(pf, pf))
    result = float_record(n, ["1"], "0.3")
    assert result["passed"]
    assert result["lhs"] == result["rhs"] == pytest.approx(oracle, rel=1e-14)


def test_verify_master_float_known_exact_values():
    assert float_record(1, ["1"], "1")["rhs"] == 1 / 3
    result = float_record(3, ["0.5", "0.5"], "0.5")
    exact = verify_master(3, [Fraction(1, 2)] * 2, "1/2").rhs
    assert exact.coeff == Fraction(25, 256)
    assert result["lhs"] == result["rhs"] == 25 / 256


def test_verify_master_float_calibration_subgrid():
    # each side is the exact value rounded once
    for n in (1, 2, 3):
        for p in ("1/2", "1", "2"):
            for coeffs in (["1"], ["1", "2"]):
                exact = float(verify_master(n, coeffs, p).rhs)
                result = float_record(n, coeffs, p)
                assert result == {"lhs": exact, "rhs": exact, "relDiff": 0.0,
                                  "passed": True}


def test_verify_master_float_cancellation_is_inconclusive():
    # the alternating side, summed in doubles, loses every digit here; read
    # exactly, both sides are the exact value rounded once and the record
    # passes instead of being left inconclusive
    exact = float(verify_master(25, [1, 1, 1], Fraction(7, 10)).lhs)
    assert exact == pytest.approx(2.776429657378975e20, rel=1e-15)
    assert float_record(25, ["1", "1", "1"], "0.7") == {
        "lhs": exact, "rhs": exact, "relDiff": 0.0, "passed": True}


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
def test_verify_master_float_refuses_a_bad_tolerance(capsys, tolerance):
    # a float record is decided by exact equality, so there is no tolerance
    # to check: --tolerance, given as a separate argument, is a usage error
    with pytest.raises(SystemExit) as info:
        main(["verify", "master", "--n", "2", "--coeffs", "1,2", "--p", "0.7",
              "--mode", "float", "--tolerance", str(tolerance)])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith(f"unrecognized arguments: --tolerance {tolerance}\n")


def test_verify_master_float_general_p_points():
    for p in ("0.3", "0.7", "2.4"):
        for coeffs in (["1"], ["1", "2"]):
            for n in (1, 2, 3, 4):
                assert float_record(n, coeffs, p)["passed"]


@settings(max_examples=60, deadline=None)
@given(p_hundredths=st.integers(30, 250),
       weights=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       n=st.integers(1, 12))
def test_float_verdict_is_honest_against_the_exact_value(p_hundredths,
                                                          weights, n):
    # decimal p and weights as typed are exact rationals, so the exact
    # engine gives the true value of both sides
    p_text = f"{p_hundredths / 100:.2f}"
    coeffs = [f"{w / 10:.1f}" for w in weights]
    result = float_record(n, coeffs, p_text)
    exact = float(verify_master(n, [Fraction(c) for c in coeffs],
                                Fraction(p_text)).lhs)
    assert result == {"lhs": exact, "rhs": exact, "relDiff": 0.0,
                      "passed": True}


@settings(max_examples=60, deadline=None)
@given(p_hundredths=st.integers(5, 550),
       weights=st.lists(st.integers(1, 70), min_size=1, max_size=6),
       n=st.integers(1, 40))
def test_float_verdict_at_zero_tolerance_never_violated(p_hundredths,
                                                         weights, n):
    # the verdict is exact equality, so a record passes or, beyond the
    # double range, is refused; it is never violated
    code, records = float_run(n, [f"{w / 10:.1f}" for w in weights],
                              f"{p_hundredths / 100:.2f}")
    assert code in (0, 2)
    assert all(r["passed"] and r["relDiff"] == 0.0 for r in records)


def test_verify_master_float_validation():
    for n, coeffs, p in ((0, ["1"], "1"), (1, ["1"], "0.0"),
                         (1, [], "1"), (1, ["0.0"], "1")):
        assert float_run(n, coeffs, p) == (2, [])


def test_float_budget_holds_at_its_edge():
    # a float record is charged as the exact record it runs: at --coeffs 1
    # --p 0.7 the last admitted n is 233
    assert float_record(233, ["1"], "0.7")["passed"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["verify", "master", "--n", "234", "--coeffs", "1",
                     "--p", "0.7", "--mode", "float"]) == 2
    assert err.getvalue() == (
        "betawalk: error: master record at n=234, k=1 needs about 16001620 "
        "limb operations (budget is 16000000)\n")


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
