"""Streaming enumeration of weak compositions in colexicographic order.

A weak composition of ``total`` into ``parts`` slots is an ordered tuple of
non-negative integers summing to ``total``; there are
C(total + parts - 1, parts - 1) of them.  The stream starts at
(total, 0, ..., 0), ends at (0, ..., 0, total), and is ordered
colexicographically (read right-to-left, lexicographic).  Compositions are
yielded as plain int tuples and the stream holds one scratch list, so memory
stays constant no matter how large the index set is.

The streams feed the tests' literal-sum oracles: the program evaluates the
master expansions, path counts and catalog remark sums as power-series
coefficients instead, so no composition is enumerated outside the tests.
The literal terms of those sums, the multinomial coefficient and the rising
factorial, live here too; the program computes neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "count_weak_compositions",
    "multinomial",
    "pochhammer",
    "weak_compositions",
]


def _check_args(total: int, parts: int) -> None:
    if total < 0:
        raise ValueError("total must be non-negative")
    if parts < 0:
        raise ValueError("parts must be non-negative")
    if parts == 0 and total > 0:
        raise ValueError("cannot split a positive total into zero parts")


def count_weak_compositions(total: int, parts: int) -> int:
    """Number of weak compositions of total into parts slots."""
    _check_args(total, parts)
    if parts == 0:
        return 1  # the empty composition of 0
    return math.comb(total + parts - 1, parts - 1)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield every weak composition of total into parts, in colex order."""
    _check_args(total, parts)
    return _generate(total, parts)


def _generate(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        yield ()
        return
    if parts == 1:
        yield (total,)
        return
    current = [0] * parts
    current[0] = total
    last = parts - 1
    while True:
        yield tuple(current)
        if not _advance(current, last):
            return


def _advance(current: list[int], last: int) -> bool:
    """Step ``current`` to its colex successor in place; False at the end.

    Successor rule: move one unit from slot 0 to slot 1 while slot 0 is
    non-empty; otherwise dump the first non-empty slot j back into slot 0
    (minus the unit that moves to slot j+1).
    """
    head = current[0]
    if head > 0:
        current[0] = head - 1
        current[1] += 1
        return True
    j = 1
    while current[j] == 0:
        j += 1
        if j > last:
            return False  # total == 0: single empty-sum composition
    if j == last:
        return False
    current[0] = current[j] - 1
    current[j] = 0
    current[j + 1] += 1
    return True


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...) for a composition of n."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative")
    if sum(parts) != n:
        raise ValueError(f"parts sum to {sum(parts)}, expected {n}")
    result = math.factorial(n)
    for p in parts:
        result //= math.factorial(p)
    return result


def pochhammer(a, m: int) -> Fraction:
    """Rising factorial a(a+1)...(a+m-1); 1 when m = 0."""
    if m < 0:
        raise ValueError("pochhammer requires m >= 0")
    result = Fraction(1)
    for i in range(m):
        result *= Fraction(a) + i
    return result
