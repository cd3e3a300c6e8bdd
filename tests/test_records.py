"""The record types are NamedTuples: what they keep from frozen dataclasses.

Each keeps its fields, immutability, validation and canonical form, and
``PiRational`` its arithmetic: a tuple repeat or concatenation never
stands in for it.  A record does compare equal to the plain tuple of its
fields; the program only ever compares records of one type, which the
last tests pin.  Half-integer arguments and weights are plain Fractions.
"""

from fractions import Fraction

import pytest

from betawalk.catalog import CATALOG
from betawalk.exact import PiRational
from betawalk.moments import (IdentityReport, verify_equal_coeff_form,
                              verify_master)
from betawalk.render import InputError
from betawalk.walks import (PathCount, WalkSpec, brute_force_return,
                            path_count, simulate_walk)


def test_validating_records_reject_bad_input_as_before():
    with pytest.raises(InputError):
        verify_master(1, [], 1)
    with pytest.raises(InputError):
        verify_master(1, [1, 0], 1)
    with pytest.raises(TypeError):
        verify_master(1, [0.5], 1)
    with pytest.raises(InputError):
        WalkSpec(0, 1)
    with pytest.raises(InputError):
        WalkSpec(1, 0)
    with pytest.raises(ValueError) as info:
        PathCount(5, 4)
    assert not isinstance(info.value, InputError)
    with pytest.raises(ValueError):
        PathCount(-1, 4)
    with pytest.raises(TypeError):
        PiRational(0.5)


def test_pi_rational_zero_stays_canonical():
    for zero in (PiRational(Fraction(0), 7), PiRational(0, -3),
                 PiRational("0/5", 2), PiRational(Fraction(1), 3) * 0):
        assert zero.sqrt_pi_pow == 0
        assert zero == PiRational(0)
        assert hash(zero) == hash(PiRational(0))
    assert PiRational(3).coeff == Fraction(3)
    assert isinstance(PiRational("3/4").coeff, Fraction)


def test_records_stay_immutable():
    for record in (PiRational(1), PathCount(1, 2), WalkSpec(1, 1)):
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)


def test_tuple_arithmetic_does_not_leak():
    one = PiRational(1)
    # PiRational has no addition, and a tuple's concatenation does not
    # stand in for one
    for other in ((1, 0), one):
        with pytest.raises(TypeError):
            one + other
    with pytest.raises(TypeError):
        2.0 * one
    with pytest.raises(TypeError):
        one * (1, 0)
    # an int factor scales the value, as it always has, and repeats nothing
    for product in (2 * one, one * 2):
        assert type(product) is PiRational
        assert product == PiRational(2)


def test_records_equal_the_tuple_of_their_fields():
    # the one declared change of equality: a record is a tuple
    assert PathCount(6, 16) == (6, 16)
    assert tuple(PiRational(Fraction(1, 2), 1)) == (Fraction(1, 2), 1)
    count, total = path_count(2, 1)
    assert (count, total) == (4, 16)


def test_compared_records_are_of_one_type():
    # every == the program makes on records meets two of the same type
    rep = verify_master(3, (1, 2), Fraction(1, 2))
    assert type(rep) is IdentityReport
    assert type(rep.lhs) is type(rep.rhs) is PiRational
    eq = verify_equal_coeff_form(2, 2, Fraction(3, 2))
    assert type(eq.lhs) is type(eq.rhs) is PiRational
    for entry in CATALOG.values():
        reports = list(entry.run())
        if entry.counterexample is not None:
            reports.append(entry.counterexample())
        for rep in reports:
            assert type(rep.lhs) is type(rep.rhs) is PiRational, entry.name
    assert type(brute_force_return(2, 2)) is type(path_count(2, 2)) is PathCount


def test_replace_keeps_the_record_type():
    rep = verify_master(1, (1,), 1)
    assert type(rep._replace(notes=("x",))) is IdentityReport
    assert rep._replace(verified=False).verified is False
    sim = simulate_walk(WalkSpec(1, 1), 100, seed=3)
    assert sim._replace(seed=4).seed == 4
