import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betawalk import moments
from betawalk.exact import PiRational, beta_half
from betawalk.moments import (
    MOMENT_WORK_BUDGET,
    _beta_work,
    _bits,
    _lhs,
    _master_work,
    _rhs,
    _step_work,
    even_moment,
    verify_equal_coeff_form,
    verify_master,
)
from betawalk.render import InputError
from betawalk.walks import brute_force_return, return_probability

from compositions import multinomial, pochhammer, weak_compositions

P_GRID = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
# shapes off the half-integers: B(p, p) is no rational multiple of a power
# of sqrt(pi) there, but every normalized moment is still rational
P_GENERAL = [Fraction(1, 3), Fraction(7, 10)]
# the equal weights at which verify_equal_coeff_form evaluates both sides
EQUAL_WEIGHTS = (Fraction(1), Fraction(1, 4), Fraction(7, 3))


def variance_oracle(p: Fraction) -> Fraction:
    # Var Be(a,b) = ab / ((a+b)^2 (a+b+1)), so E[U^2] = 4 Var(X) at a=b=p
    return 4 * (p * p) / ((2 * p) ** 2 * (2 * p + 1))


def uniform_moment_oracle(n: int) -> Fraction:
    # U uniform on [-1, 1]: E[U^2n] = 1/(2n+1)
    return Fraction(1, 2 * n + 1)


def test_even_moment_against_variance_oracle():
    for p in P_GRID:
        assert even_moment(1, p) == PiRational(variance_oracle(p))


def test_even_moment_examples():
    assert even_moment(2, "1/2") == PiRational(Fraction(3, 8))
    assert even_moment(3, 1) == PiRational(uniform_moment_oracle(3))
    assert even_moment(1, "1/2") == PiRational(Fraction(1, 2))


def test_even_moment_uniform_case():
    for n in range(1, 9):
        assert even_moment(n, 1) == PiRational(uniform_moment_oracle(n))


def test_even_moment_arcsine_closed_form():
    for n in range(1, 31):
        value = even_moment(n, "1/2")
        assert value.sqrt_pi_pow == 0
        assert value.coeff == Fraction(math.comb(2 * n, n), 4 ** n)


def quadrature_even_moment(mpmath, n: int, p: Fraction):
    """E[U^(2n)] by numerical integration against the Be(p, p) density.

    By symmetry the integral is twice the one over [0, 1/2], and there
    x = t^(1/p) turns x^(p-1) dx into dt/p, so the integrand stays bounded
    at t = 0 even for p < 1.
    """
    pf = mpmath.mpf(p.numerator) / p.denominator
    root = 1 / pf
    integral = mpmath.quad(
        lambda t: (1 - 2 * t ** root) ** (2 * n) * (1 - t ** root) ** (pf - 1),
        [0, mpmath.mpf(2) ** -pf])
    return 2 * integral / (pf * mpmath.beta(pf, pf))


def as_mpf(mpmath, value):
    if isinstance(value, PiRational):
        assert value.sqrt_pi_pow == 0
        value = value.coeff
    return mpmath.mpf(value.numerator) / value.denominator


def test_even_moment_quadrature_oracle():
    mpmath = pytest.importorskip("mpmath")
    cases = [(2, Fraction(3, 2)), (3, Fraction(1, 2)), (1, Fraction(2))]
    cases += [(n, p) for p in P_GENERAL + [Fraction(7, 5)] for n in (1, 2, 5)]
    with mpmath.workdps(40):
        for n, p in cases:
            expected = quadrature_even_moment(mpmath, n, p)
            for got in (even_moment(n, p), verify_master(n, [1], p).lhs):
                assert abs(as_mpf(mpmath, got) - expected) < 1e-25


@pytest.mark.parametrize("p", P_GENERAL + [Fraction(7, 5)], ids=str)
def test_two_variable_moment_quadrature_oracle(p):
    # odd moments vanish, so E[(aU + bV)^(2n)] is a binomial sum over the
    # even moments of one variable, here taken from quadrature
    mpmath = pytest.importorskip("mpmath")
    a, b = Fraction(1, 2), Fraction(2)
    with mpmath.workdps(40):
        for n in (1, 3):
            q = [mpmath.mpf(1)] + [quadrature_even_moment(mpmath, i, p)
                                   for i in range(1, n + 1)]
            expected = mpmath.fsum(
                as_mpf(mpmath, math.comb(2 * n, 2 * i) * a ** (2 * i)
                       * b ** (2 * n - 2 * i)) * q[i] * q[n - i]
                for i in range(n + 1))
            rep = verify_master(n, (a, b), p)
            for side in (rep.lhs, rep.rhs):
                got = as_mpf(mpmath, side)
                assert abs(got - expected) < 1e-25 * expected


def test_even_moment_validation():
    with pytest.raises(ValueError):
        even_moment(0, 1)
    assert even_moment(2, "1/3") == PiRational(Fraction(27, 55))
    with pytest.raises(ValueError):
        even_moment(2, 0)


def test_lhs_master_literal_three_term_sum():
    # n=1, c=[1], p=1: the sum has slots (j1, j2) with j1+j2 = 2
    b = lambda j: beta_half(Fraction(j + 1), Fraction(1))
    expected = pi_sum([b(0) * 1, b(1) * (2 * -2), b(2) * 4]) / beta_half(
        Fraction(1), Fraction(1))
    assert expected == PiRational(Fraction(1, 3))
    assert verify_master(1, [1], 1).lhs == expected


def test_lhs_master_matches_single_variable_moment():
    assert verify_master(1, [1], "1/2").lhs == even_moment(1, "1/2")
    for n in range(1, 5):
        for p in P_GRID:
            assert verify_master(n, [1], p).lhs == even_moment(n, p)


def test_lhs_master_two_equal_halves():
    assert verify_master(1, ["1/2", "1/2"], "1/2").lhs == PiRational(
        Fraction(math.comb(2, 1) ** 2, 16))


def test_rhs_master_literal_evaluation():
    # n=1, c=[1], p=1: single index i1=1, term (1/2) * B(3/2, 1)
    expected = beta_half(Fraction(3, 2), Fraction(1)) / beta_half(
        Fraction(1), Fraction(1)) / 2
    assert expected == PiRational(Fraction(1, 3))
    assert verify_master(1, [1], 1).rhs == expected


def test_rhs_master_against_brute_force_walk_oracle():
    oracle = brute_force_return(3, 2)
    assert oracle.probability == Fraction(90, 1296)
    assert (verify_master(2, ["1/3"] * 3, "1/2").rhs
            == PiRational(oracle.probability))


def test_verify_master_examples():
    rep = verify_master(3, [1, 2], "3/2")
    assert rep.verified and rep.to_json_obj()["mode"] == "exact"
    rep = verify_master(1, [1], 1)
    assert rep.verified
    assert rep.lhs == rep.rhs == PiRational(Fraction(1, 3))
    rep = verify_master(4, ["1/3"] * 3, "1/2")
    assert rep.verified
    assert rep.lhs == PiRational(return_probability(3, 4))


def test_verify_master_report_fields():
    rep = verify_master(2, ["1/2", "1/3"], "1/2")
    assert rep.parameters == {"n": "2", "k": "2", "p": "1/2",
                              "coeffs": "1/2,1/3"}
    obj = rep.to_json_obj()
    assert obj["verified"] is True
    assert obj["lhs"] == obj["rhs"]


def test_master_identity_over_named_vectors():
    vectors = [
        (Fraction(1),),
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(2), Fraction(1), Fraction(1)),
    ]
    for n in range(1, 5):
        for p in P_GRID:
            for coeffs in vectors:
                assert verify_master(n, coeffs, p).verified
            for k in range(1, 5):
                assert verify_master(n, (Fraction(1, k),) * k, p).verified


@given(st.fractions(min_value="1/20", max_value=20, max_denominator=20),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_scaling_homogeneity(lam, n):
    base = (Fraction(1, 2), Fraction(2))
    scaled = tuple(lam * c for c in base)
    for p in (Fraction(1, 2), Fraction(2)):
        expected = verify_master(n, base, p).lhs * PiRational(lam ** (2 * n))
        assert verify_master(n, scaled, p).lhs == expected


def test_rhs_master_permutation_invariance():
    coeffs = (Fraction(1, 2), Fraction(1, 3), Fraction(3))
    permuted = (Fraction(3), Fraction(1, 2), Fraction(1, 3))
    for n in (1, 3):
        for p in P_GRID:
            assert (verify_master(n, coeffs, p).rhs
                    == verify_master(n, permuted, p).rhs)


def test_zero_padding_shrinks_dimension():
    # a slot of weight 0 contributes the factor 1 (0^0 = 1), so it drops out
    c1, c2 = Fraction(1, 2), Fraction(2, 3)
    for n in (1, 2, 3):
        for p in P_GRID + P_GENERAL:
            assert _lhs(n, (c1, c2, Fraction(0)), p) == _lhs(n, (c1, c2), p)
            assert _rhs(n, (c1, Fraction(0), c2), p) == _rhs(n, (c1, c2), p)
            assert PiRational(_lhs(n, (c1, c2), p)) == verify_master(
                n, (c1, c2), p).lhs


def test_moment_walk_correspondence_small():
    for k in range(1, 5):
        for n in range(1, 5):
            assert (verify_master(n, (Fraction(1, k),) * k, "1/2").rhs
                    == PiRational(return_probability(k, n)))


def pi_sum(terms):
    """The sum of exact values that share one power of sqrt(pi), as every
    term of one literal expansion does; zero terms carry none."""
    terms = list(terms)
    powers = {t.sqrt_pi_pow for t in terms if t.coeff}
    assert len(powers) <= 1, powers
    return PiRational(sum(t.coeff for t in terms), max(powers, default=0))


def literal_lhs_raw(n, coeffs, p):
    """Raw expansion written out over the weak compositions of 2n."""
    total = sum(coeffs, Fraction(0))
    terms = []
    for comp in weak_compositions(2 * n, len(coeffs) + 1):
        term = PiRational(multinomial(2 * n, comp) * total ** comp[0])
        for c, j in zip(coeffs, comp[1:]):
            term = term * beta_half(j + p, p) * (-2 * c) ** j
        terms.append(term)
    return pi_sum(terms)


def literal_rhs_raw(n, coeffs, p):
    """Even expansion written out over the weak compositions of n."""
    terms = []
    for comp in weak_compositions(n, len(coeffs)):
        term = PiRational(multinomial(2 * n, [2 * i for i in comp]))
        for c, i in zip(coeffs, comp):
            term = term * beta_half(i + Fraction(1, 2), p) * c ** (2 * i)
        terms.append(term)
    return pi_sum(terms) / 2 ** int((2 * p - 1) * len(coeffs))


LITERAL_VECTORS = [(Fraction(1, 2),), (Fraction(1), Fraction(1)),
                   (Fraction(1, 2), Fraction(1, 3)),
                   (Fraction(2), Fraction(1, 3), Fraction(7, 5))]


def test_expansions_match_literal_composition_sums():
    for n in range(1, 5):
        for p in P_GRID:
            for coeffs in LITERAL_VECTORS:
                norm = beta_half(p, p) ** len(coeffs)
                rep = verify_master(n, coeffs, p)
                assert rep.lhs == literal_lhs_raw(n, coeffs, p) / norm
                assert rep.rhs == literal_rhs_raw(n, coeffs, p) / norm


def literal_lhs(n, coeffs, p):
    """Raw expansion over the weak compositions of 2n, with the moments
    E[X^j] = (p)_j / (2p)_j written as Pochhammer quotients."""
    total = sum(coeffs, Fraction(0))
    acc = Fraction(0)
    for comp in weak_compositions(2 * n, len(coeffs) + 1):
        term = Fraction(multinomial(2 * n, comp)) * total ** comp[0]
        for c, j in zip(coeffs, comp[1:]):
            term *= (-2 * c) ** j * pochhammer(p, j) / pochhammer(2 * p, j)
        acc += term
    return acc


def literal_rhs(n, coeffs, p):
    """Even expansion over the weak compositions of n, with the moments
    E[U^(2i)] = (1/2)_i / (p + 1/2)_i written as Pochhammer quotients."""
    acc = Fraction(0)
    for comp in weak_compositions(n, len(coeffs)):
        term = Fraction(multinomial(2 * n, [2 * i for i in comp]))
        for c, i in zip(coeffs, comp):
            term *= (c ** (2 * i) * pochhammer(Fraction(1, 2), i)
                     / pochhammer(p + Fraction(1, 2), i))
        acc += term
    return acc


@pytest.mark.parametrize("p", P_GENERAL, ids=str)
def test_expansions_match_literal_sums_at_general_p(p):
    for n in range(1, 5):
        for coeffs in LITERAL_VECTORS:
            rep = verify_master(n, coeffs, p)
            assert rep.lhs == PiRational(literal_lhs(n, coeffs, p))
            assert rep.rhs == PiRational(literal_rhs(n, coeffs, p))


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=20),
       st.lists(st.fractions(min_value="1/20", max_value=20,
                             max_denominator=20).filter(lambda c: c > 0),
                min_size=1, max_size=4),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_master_identity_at_random_rational_p(num, den, coeffs, n):
    assert verify_master(n, coeffs, Fraction(num, den)).verified


# ---------------------------------------------------------------------------
# the integer series kernel against a Fraction convolution
# ---------------------------------------------------------------------------


def fraction_coefficient(factors, degree):
    """[x^degree] of the product of the factors, convolved one at a time
    in Fractions and truncated at x^degree."""
    product = factors[0]
    for factor in factors[1:]:
        product = [sum(product[i] * factor[d - i] for i in range(d + 1))
                   for d in range(degree + 1)]
    return product[degree]


def oracle_lhs(n, coeffs, p):
    two_n = 2 * n
    m = moments._raw_moments(p, two_n + 1)
    total = sum(coeffs, Fraction(0))
    factors = [[total ** j / math.factorial(j) for j in range(two_n + 1)]]
    factors += [[(-2 * c) ** j * m[j] / math.factorial(j)
                 for j in range(two_n + 1)] for c in coeffs]
    return math.factorial(two_n) * fraction_coefficient(factors, two_n)


def oracle_rhs(n, coeffs, p):
    mu = moments._even_moments(p, n + 1)
    factors = [[c ** (2 * i) * mu[i] / math.factorial(2 * i)
                for i in range(n + 1)] for c in coeffs]
    return math.factorial(2 * n) * fraction_coefficient(factors, n)


def truncated_product(f, g):
    return [sum(f[i] * g[d - i] for i in range(d + 1)) for d in range(len(f))]


def series(values, size):
    """Lists of ``size`` coefficients, many of them 0, the first not."""
    return st.lists(st.one_of(st.just(0), values), min_size=size,
                    max_size=size).filter(lambda f: f[0] != 0)


@given(st.integers(min_value=1, max_value=12).flatmap(
           lambda size: series(st.integers(-10 ** 6, 10 ** 6), size)),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=150, deadline=None)
def test_integer_power_is_the_repeated_product(f, k):
    expected = f
    for _ in range(k - 1):
        expected = truncated_product(expected, f)
    assert moments._power(f, k) == expected


FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda size: st.lists(st.tuples(series(FRACTIONS, size),
                                    st.integers(min_value=1, max_value=8)),
                          min_size=1, max_size=3)))
@settings(max_examples=100, deadline=None)
def test_series_coefficient_is_the_repeated_product(powers):
    degree = len(powers[0][0]) - 1
    factors = [f for f, k in powers for _ in range(k)]
    assert (moments._series_coefficient(powers, degree)
            == fraction_coefficient(factors, degree))


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 2),
                               Fraction(7, 5)], ids=str)
def test_every_sweep_record_equals_the_fraction_convolution(p):
    # the records of verify master --n 1..12 --k 1..6
    for n in range(1, 13):
        for k in range(1, 7):
            ones = (Fraction(1),) * k
            assert _lhs(n, ones, p) == oracle_lhs(n, ones, p), (n, k)
            assert _rhs(n, ones, p) == oracle_rhs(n, ones, p), (n, k)


def test_repeated_and_distinct_weights_equal_the_fraction_convolution():
    # the records of verify master --n 1..10 --coeffs 1/2,1/2,3,3,3 --p 7/5
    p = Fraction(7, 5)
    cs = (Fraction(1, 2), Fraction(1, 2), Fraction(3), Fraction(3),
          Fraction(3))
    for n in range(1, 11):
        assert _lhs(n, cs, p) == oracle_lhs(n, cs, p), n
        assert _rhs(n, cs, p) == oracle_rhs(n, cs, p), n


@pytest.mark.parametrize("patched, kept", [("_raw_moments", "rhs"),
                                           ("_even_moments", "lhs")])
def test_each_side_reads_only_its_own_moments(monkeypatch, patched, kept):
    # perturbing one side's moment sequence must move that side alone and
    # break the identity; a side derived from the other would follow it
    p, coeffs = Fraction(1, 3), (Fraction(1), Fraction(2))
    before = verify_master(3, coeffs, p)
    real = getattr(moments, patched)

    def perturbed(p, count):
        seq = real(p, count)
        seq[1] += Fraction(1, 10 ** 6)
        return seq

    monkeypatch.setattr(moments, patched, perturbed)
    after = verify_master(3, coeffs, p)
    assert not after.verified
    assert getattr(after, kept) == getattr(before, kept)


def test_verify_equal_coeff_form():
    assert verify_equal_coeff_form(1, 2, "1/2").verified
    assert verify_equal_coeff_form(2, 1, 1).verified
    # B(p, p) at 2p = 2001 has about 6000 bits, and its charge fits
    assert verify_equal_coeff_form(1, 1, Fraction(2001, 2)).verified
    rep = verify_equal_coeff_form(1, 3, "1/2")
    assert rep.verified
    # value scales by k^(2n) relative to the 1/k-weight case
    scale = PiRational(Fraction(3 ** 2))
    assert (verify_master(1, [1] * 3, "1/2").lhs
            == verify_master(1, [Fraction(1, 3)] * 3, "1/2").lhs * scale)


def test_verify_equal_coeff_form_evaluates_each_side_once_per_weight(
        monkeypatch):
    calls = []

    def counting(side, real):
        def count(n, coeffs, p):
            calls.append((side, coeffs))
            return real(n, coeffs, p)
        return count

    monkeypatch.setattr(moments, "_lhs", counting("lhs", _lhs))
    monkeypatch.setattr(moments, "_rhs", counting("rhs", _rhs))
    assert verify_equal_coeff_form(2, 3, "1/2").verified
    assert sorted(calls) == sorted((side, (c,) * 3) for c in EQUAL_WEIGHTS
                                   for side in ("lhs", "rhs"))


def test_verify_equal_coeff_form_fails_a_side_that_does_not_scale(
        monkeypatch):
    def wrong_at_7_3(n, coeffs, p):
        value = _rhs(n, coeffs, p)
        return value + 1 if coeffs[0] == Fraction(7, 3) else value

    monkeypatch.setattr(moments, "_rhs", wrong_at_7_3)
    rep = verify_equal_coeff_form(2, 3, "1/2")
    assert not rep.verified
    # the reported sides are the weight-1 ones, which still agree
    assert rep.lhs == rep.rhs


def test_coefficient_vector_validation():
    for bad in ([], [Fraction(1), Fraction(0)], [Fraction(-1)]):
        with pytest.raises(InputError):
            verify_master(1, bad, 1)
    with pytest.raises(TypeError):
        verify_master(1, [1, 0.5], 1)
    rep = verify_master(1, ["1/2", "1/3"], 1)
    assert rep.parameters["k"] == "2"
    assert rep.parameters["coeffs"] == "1/2,1/3"


def test_equal_coeff_form_needs_a_half_integer_shape():
    for p in ("1/3", Fraction(2, 3), "5/4"):
        with pytest.raises(InputError):
            verify_equal_coeff_form(1, 1, p)
    with pytest.raises(InputError):
        verify_equal_coeff_form(1, 1, 0)


# ---------------------------------------------------------------------------
# the work budget of a record
# ---------------------------------------------------------------------------


def master_work(n, cs, p):
    cs = tuple(map(Fraction, cs))
    return _master_work(n, len(cs), max(map(_bits, (*cs, sum(cs)))), p)


def equal_coeff_work(n, k, p):
    return (sum(master_work(n, (c,) * k, p) for c in EQUAL_WEIGHTS)
            + _beta_work(p, k))


def even_moment_work(n, p):
    return sum(map(_step_work, moments._even_moments(p, n + 1)[1:]))


def test_beta_charge_covers_the_bits_of_b_p_p():
    # the sizes _beta_work charges for B(p, p): at most 6m + 2 bits at
    # p = m + 1/2, where it is pi C(2m, m) / 16^m, and at most the
    # 2p bits(2p) of (2p)! at an integer p
    for two_p in range(1, 300):
        p = Fraction(two_p, 2)
        bound = (6 * (two_p // 2) + 2 if two_p % 2
                 else two_p * two_p.bit_length())
        assert _bits(beta_half(p, p).coeff) <= bound, p


def test_master_budget_refuses_before_any_arithmetic(monkeypatch):
    def never(*args):
        raise AssertionError("a refused record reached the arithmetic")

    monkeypatch.setattr(moments, "_lhs", never)
    monkeypatch.setattr(moments, "_rhs", never)
    monkeypatch.setattr(moments, "_even_moments", never)
    monkeypatch.setattr(moments, "beta_half", never)
    started = time.perf_counter()
    for call in (lambda: verify_master(1000, (1, 2), "1/2"),
                 lambda: verify_equal_coeff_form(1000, 2, "1/2"),
                 lambda: verify_equal_coeff_form(1, 10 ** 8, "3/2"),
                 lambda: verify_equal_coeff_form(1, 1, "2000001/2"),
                 # B(p, p) alone fits, its 1000th power does not
                 lambda: verify_equal_coeff_form(1, 1000, Fraction(16001, 2)),
                 lambda: even_moment(10 ** 7, "7/5")):
        with pytest.raises(InputError, match=r"needs about \d+ limb "
                           r"operations \(budget is 16000000\)"):
            call()
    assert time.perf_counter() - started < 1.0


def test_many_weights_are_refused_before_their_sum():
    # the series lengths alone are over the budget at n=1, k=99999, so the
    # weights' sum, whose denominator is lcm(1..99999), is never formed
    weights = [Fraction(1, i) for i in range(1, 10 ** 5)]
    started = time.perf_counter()
    with pytest.raises(InputError, match=r"master record at n=1, k=99999"):
        verify_master(1, weights, 1)
    assert time.perf_counter() - started < 1.0


def test_master_budget_holds_at_its_edge(monkeypatch):
    n, cs, p = 6, (Fraction(1, 2), Fraction(7, 5)), Fraction(3, 2)
    work = master_work(n, cs, p)
    monkeypatch.setattr(moments, "MOMENT_WORK_BUDGET", work)
    assert verify_master(n, cs, p).verified
    monkeypatch.setattr(moments, "MOMENT_WORK_BUDGET", work - 1)
    with pytest.raises(InputError, match=f"master record at n=6, k=2 needs "
                       f"about {work} limb operations"):
        verify_master(n, cs, p)

    work = equal_coeff_work(3, 2, p)
    monkeypatch.setattr(moments, "MOMENT_WORK_BUDGET", work)
    assert verify_equal_coeff_form(3, 2, p).verified
    monkeypatch.setattr(moments, "MOMENT_WORK_BUDGET", work - 1)
    with pytest.raises(InputError, match="equal-coeff record at n=3, k=2"):
        verify_equal_coeff_form(3, 2, p)


@pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(1), Fraction(7, 5)])
def test_even_moment_budget_holds_at_its_edge(monkeypatch, p):
    # the charge is the size of each value made, so the edge is exact
    work = even_moment_work(40, p)
    expected = PiRational(moments._even_moments(p, 41)[40])
    monkeypatch.setattr(moments, "MOMENT_WORK_BUDGET", work)
    assert even_moment(40, p) == expected
    monkeypatch.setattr(moments, "MOMENT_WORK_BUDGET", work - 1)
    with pytest.raises(InputError, match="even moment at n=40 needs about"):
        even_moment(40, p)


def test_even_moment_charges_the_size_its_values_reach():
    # an integer p telescopes to p factors: long runs stay cheap and admitted
    assert even_moment(20000, 1) == PiRational(Fraction(1, 40001))
    assert even_moment(8000, 2) == PiRational(Fraction(3, 16001 * 16003))
    least = _step_work(Fraction(1))
    assert even_moment_work(20000, Fraction(1)) == 20000 * least
    # 7/5 does not: its values grow with every step
    assert even_moment_work(1000, Fraction(7, 5)) > 1000 * least + 50_000
    # so the least charge of a step refuses a long run before its first step
    longest = MOMENT_WORK_BUDGET // least
    with pytest.raises(InputError, match=f"even moment at n={longest + 1} "
                       f"needs about {(longest + 1) * least} limb"):
        even_moment(longest + 1, 1)


def test_master_budget_admits_the_documented_sizes():
    # the documented sweeps, the README commands and the benchmark's points
    for n in range(1, 41):
        for k in range(1, 9):
            assert master_work(n, (1,) * k, Fraction(3, 2)) \
                <= MOMENT_WORK_BUDGET
    seven = tuple(Fraction(1, i) for i in range(1, 8)) + (Fraction(7, 5),)
    assert master_work(30, seven, Fraction(7, 5)) <= MOMENT_WORK_BUDGET
    for n in range(1, 21):
        for k in range(1, 7):
            assert equal_coeff_work(n, k, Fraction(5, 2)) <= MOMENT_WORK_BUDGET
    # weights 1, 2 at p = 1/2 take 0.64 s at n=100; refused from n=200 on
    one_two = (Fraction(1), Fraction(2))
    assert (master_work(199, one_two, Fraction(1, 2)) <= MOMENT_WORK_BUDGET
            < master_work(200, one_two, Fraction(1, 2)))
