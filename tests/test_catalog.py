import math
from fractions import Fraction

import pytest

from betawalk.catalog import (
    CATALOG,
    _k_dim_sum,
    verify_alternating,
    verify_convolution,
    verify_duplication,
    verify_k_dim_remark,
    verify_one_dim_general_p,
    verify_three_dim_remark,
    verify_two_dim_remark,
    verify_vandermonde,
)
from betawalk.exact import PiRational
from betawalk.render import InputError
from betawalk.walks import closed_form_2d, return_probability

from compositions import multinomial, weak_compositions


def test_convolution():
    rep = verify_convolution(1)
    assert rep.verified and rep.lhs == PiRational(Fraction(4))
    assert rep.parameters["printedSum"] == "2"  # both variants recorded
    rep = verify_convolution(3)
    assert rep.verified
    # direct 4-term oracle: 20 + 12 + 12 + 20
    assert rep.lhs == PiRational(Fraction(20 + 12 + 12 + 20))


def test_convolution_counterexample():
    rep = CATALOG["convolution"].counterexample()
    assert not rep.verified
    assert rep.lhs == PiRational(Fraction(2))
    assert rep.rhs == PiRational(Fraction(4))
    assert rep.parameters["variant"] == "printed"


def test_alternating():
    rep = verify_alternating(1)
    assert rep.verified
    # direct 3-term oracle: 1 - 2 + 3/2
    assert rep.lhs == PiRational(Fraction(1) - 2 + Fraction(3, 2))
    rep = verify_alternating(2)
    assert rep.verified and rep.lhs == PiRational(Fraction(3, 8))


def test_alternating_counterexample():
    rep = CATALOG["alternating"].counterexample()
    assert not rep.verified
    assert rep.lhs == PiRational(Fraction(-1))
    assert rep.rhs == PiRational(Fraction(1, 2))


def test_one_dim_general_p():
    rep = verify_one_dim_general_p(1, 1)
    assert rep.verified
    assert rep.lhs == PiRational(Fraction(1, 3))
    assert verify_one_dim_general_p(1, "1/2").verified
    assert verify_one_dim_general_p(2, "3/2").verified


def test_one_dim_counterexample_keeps_pi_content():
    rep = CATALOG["one-dim-general-p"].counterexample()
    assert not rep.verified
    assert rep.lhs == PiRational(Fraction(-1), 2)
    assert rep.rhs == PiRational(Fraction(1, 2), 2)


def test_two_dim_remark():
    rep = verify_two_dim_remark(1)
    assert rep.verified
    # direct 6-term oracle: 1 + 3/8 + 3/8 - 1 - 1 + 1/2
    expected = (Fraction(1) + Fraction(3, 8) + Fraction(3, 8)
                - 1 - 1 + Fraction(1, 2))
    assert rep.lhs == PiRational(expected)
    for n in (2, 3):
        rep = verify_two_dim_remark(n)
        assert rep.verified
        assert rep.lhs == PiRational(closed_form_2d(n))


def test_two_dim_label_counterexample():
    # the stated shape label: at p=2 the n=1 moment is 1/10, not 1/4
    rep = CATALOG["two-dim-remark"].counterexample()
    assert not rep.verified
    assert rep.lhs == PiRational(Fraction(1, 10))
    assert rep.rhs == PiRational(Fraction(1, 4))


def test_three_dim_remark():
    rep = verify_three_dim_remark(1)
    assert rep.verified
    # direct oracle: 1 + 1/2 - 2 + 2/3
    assert rep.lhs == PiRational(Fraction(1) + Fraction(1, 2) - 2
                                 + Fraction(2, 3))
    for n in (2, 3):
        rep = verify_three_dim_remark(n)
        assert rep.verified
        assert rep.lhs == PiRational(return_probability(3, n))


def test_k_dim_remark():
    rep = verify_k_dim_remark(1, 1)
    assert rep.verified
    assert rep.lhs == PiRational(Fraction(1, 2))
    rep = verify_k_dim_remark(2, 3)
    assert rep.verified
    assert rep.lhs == PiRational(Fraction(5, 72))


def test_k_dim_counterexample():
    rep = CATALOG["k-dim-remark"].counterexample()
    assert not rep.verified
    assert rep.lhs == PiRational(Fraction(17))
    assert rep.rhs == PiRational(Fraction(2))


def literal_k_dim_sum(n, k, slot_coeff):
    """The k-variable remark sum written out over the weak compositions of 2n."""
    acc = Fraction(0)
    for comp in weak_compositions(2 * n, k + 1):
        term = Fraction(multinomial(2 * n, comp))
        for j in comp[1:]:
            term *= slot_coeff ** j * math.comb(2 * j, j)
        acc += term
    return acc


@pytest.mark.parametrize("k", range(1, 5))
def test_k_dim_sum_matches_literal_composition_sum(k):
    # the corrected coefficient -1/(2k) and the printed -2/k
    for slot_coeff in (Fraction(-1, 2 * k), Fraction(-2, k)):
        for n in range(1, 5):
            assert _k_dim_sum(n, k, slot_coeff) == PiRational(
                literal_k_dim_sum(n, k, slot_coeff)), (n, k, slot_coeff)


def test_vandermonde():
    assert verify_vandermonde(1).lhs == PiRational(Fraction(2))
    assert verify_vandermonde(2).lhs == PiRational(Fraction(6))
    rep = verify_vandermonde(10)
    assert rep.verified
    assert rep.lhs == PiRational(Fraction(184756))
    assert rep.rhs == PiRational(Fraction(math.comb(20, 10)))


def test_duplication():
    assert verify_duplication(0).lhs == PiRational(Fraction(1))
    assert verify_duplication(2).lhs == PiRational(Fraction(3, 4))
    assert verify_duplication(10).verified


def test_declared_ranges_all_pass():
    expected_counts = {
        "convolution": 50,
        "alternating": 50,
        "one-dim-general-p": 60,
        "two-dim-remark": 12,
        "three-dim-remark": 8,
        "k-dim-remark": 24,
        "vandermonde": 100,
        "duplication": 101,
    }
    for name, count in expected_counts.items():
        reports = list(CATALOG[name].run())
        assert len(reports) == count, name
        assert all(r.verified for r in reports), name


def test_corrected_entries_carry_counterexamples():
    for entry in CATALOG.values():
        if entry.variant == "corrected":
            assert entry.erratum
            assert entry.counterexample is not None
            demo = entry.counterexample()
            assert not demo.verified
            assert demo.parameters["variant"] == "printed"
        else:
            assert entry.counterexample is None


@pytest.mark.parametrize("verifier, args", [
    (verify_convolution, (0,)),
    (verify_alternating, (0,)),
    (verify_one_dim_general_p, (0, Fraction(1, 2))),
    (verify_two_dim_remark, (0,)),
    (verify_three_dim_remark, (0,)),
    (verify_k_dim_remark, (0, 2)),
    (verify_k_dim_remark, (1, 0)),
    (verify_vandermonde, (0,)),
    (verify_duplication, (-1,)),
])
def test_verifiers_refuse_out_of_range_parameters(verifier, args):
    with pytest.raises(InputError, match="must be >= "):
        verifier(*args)


def test_unknown_entry():
    assert "no-such" not in CATALOG
    with pytest.raises(KeyError):
        CATALOG["no-such"]
