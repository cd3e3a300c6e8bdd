"""Tests of the benchmark's own output checker.

    python3 -m pytest bench/test_check.py
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import Checker, Invocation, master_moment  # noqa: E402
from workloads import compute, master, master_float  # noqa: E402

EXACT = master(2, 2, [Fraction(1), Fraction(2)], Fraction(1, 2), 1)
RETURN_PROB = compute("return-prob", 2, 10)
FLOAT = master_float(16, 16, ["1"], "0.7", 1)


def _exact_line(lhs, rhs) -> bytes:
    return (f"master n=2 k=2 p=1/2 coeffs=1,2 lhs={lhs} rhs={rhs} "
            f"verified=true\n").encode()


def _float_line(lhs: float, rhs: float, passed: str) -> bytes:
    return (f"master-float n=16 k=1 p=0.7 coeffs=1.0 lhs={lhs!r} rhs={rhs!r} "
            f"relDiff=1.0 cond=8e14 passed={passed}\n").encode()


def _checker():
    return Checker([EXACT, RETURN_PROB, FLOAT])


def test_correct_outputs_pass():
    value = master_moment(2, [1, 2], Fraction(1, 2))
    moment16 = float(master_moment(16, [1], Fraction(7, 10)))
    checker = _checker()
    assert not checker.add(Invocation(0, 0, _exact_line(value, value), ""))
    assert not checker.add(Invocation(
        1, 0, b"3969/65536 0.0605621337890625\n", ""))
    assert not checker.add(Invocation(
        2, 0, _float_line(moment16, moment16, "true"), ""))
    assert (checker.attempted, checker.failed) == (3, 0)


def test_honest_failed_verdict_is_not_a_failure():
    moment16 = float(master_moment(16, [1], Fraction(7, 10)))
    checker = _checker()
    assert not checker.add(Invocation(
        2, 1, _float_line(6.0e16, moment16, "false"), ""))
    assert checker.failed == 0


def test_three_kinds_of_failure_are_counted():
    value = master_moment(2, [1, 2], Fraction(1, 2))
    moment16 = float(master_moment(16, [1], Fraction(7, 10)))
    checker = _checker()
    altered = checker.add(Invocation(0, 0, _exact_line(value + 1, value), ""))
    wrong_exit = checker.add(Invocation(
        1, 1, b"3969/65536 0.0605621337890625\n", ""))
    vacuous = checker.add(Invocation(
        2, 0, _float_line(6.0e16, moment16, "true"), ""))
    assert any("lhs" in p for p in altered)
    assert any("exit code 1" in p for p in wrong_exit)
    assert any("vacuous pass" in p for p in vacuous)
    assert (checker.attempted, checker.failed) == (3, 3)


def test_traceback_and_changed_stdout_are_failures():
    checker = _checker()
    line = b"3969/65536 0.0605621337890625\n"
    assert not checker.add(Invocation(1, 0, line, ""))
    assert checker.add(Invocation(1, 0, line, "Traceback (most recent call last):\n"))
    assert checker.add(Invocation(1, 0, line.replace(b"0.06", b"0.07"), ""))
    assert checker.failed == 2


def test_benchmark_json_lists_the_reported_metrics():
    import json

    from run import END_TO_END, ROOT
    from spans import LAYER_UNITS
    from workloads import DIAGNOSTIC, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name not in DIAGNOSTIC]
