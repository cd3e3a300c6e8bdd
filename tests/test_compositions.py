import itertools
import math

import pytest

from compositions import count_weak_compositions, weak_compositions


def brute_compositions(total, parts):
    """Independent oracle: filter the full product space."""
    return [c for c in itertools.product(range(total + 1), repeat=parts)
            if sum(c) == total]


def test_documented_order():
    assert list(weak_compositions(2, 3)) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert list(weak_compositions(0, 4)) == [(0, 0, 0, 0)]
    assert list(weak_compositions(5, 1)) == [(5,)]


def test_counts():
    assert count_weak_compositions(2, 3) == 6
    assert count_weak_compositions(10, 1) == 1
    assert count_weak_compositions(4, 4) == 35


def test_stream_is_complete_distinct_and_counted():
    for total in range(13):
        for parts in range(1, 7):
            seen = list(weak_compositions(total, parts))
            assert len(seen) == count_weak_compositions(total, parts)
            assert len(set(seen)) == len(seen)
            assert all(sum(c) == total and len(c) == parts for c in seen)


def test_stream_matches_product_filter_oracle():
    for total in range(7):
        for parts in range(1, 5):
            assert (sorted(weak_compositions(total, parts))
                    == sorted(brute_compositions(total, parts)))


def test_order_is_colexicographic():
    for total, parts in [(4, 3), (3, 4), (6, 2), (5, 5)]:
        stream = list(weak_compositions(total, parts))
        assert stream == sorted(stream, key=lambda c: tuple(reversed(c)))


def test_doubling_bijection():
    # doubling every part maps compositions of n bijectively onto the
    # even-part compositions of 2n
    for n in range(7):
        for parts in range(1, 5):
            doubled = {tuple(2 * x for x in c)
                       for c in weak_compositions(n, parts)}
            even = {c for c in weak_compositions(2 * n, parts)
                    if all(x % 2 == 0 for x in c)}
            assert doubled == even


def test_argument_validation():
    with pytest.raises(ValueError):
        weak_compositions(3, 0)
    with pytest.raises(ValueError):
        weak_compositions(-1, 2)
    assert list(weak_compositions(0, 0)) == [()]
    assert count_weak_compositions(0, 0) == 1


def test_count_formula():
    for total in range(10):
        for parts in range(1, 6):
            assert (count_weak_compositions(total, parts)
                    == math.comb(total + parts - 1, parts - 1))
