import itertools
import math
import os
import re
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from betawalk import walks
from betawalk.render import InputError
from betawalk.walks import (
    COUNT_WORK_BUDGET,
    DEFAULT_PATH_BUDGET,
    MAX_WORKERS,
    SIMULATION_WORK_BUDGET,
    PathCount,
    SimulationResult,
    WalkSpec,
    brute_force_return,
    closed_form_2d,
    path_count,
    path_count_odd,
    return_probability,
    return_probability_odd,
    simulate_beta_moment,
    simulate_walk,
    _block_rng,
    _count_work,
    _fair_coin_counts,
    _guide,
    _inverse_table,
    _inverted_counts,
    _limbs,
    _power_by_squaring,
)

from compositions import weak_compositions


def closed_form_1d(n):
    """C(2n, n) / 4^n."""
    return Fraction(math.comb(2 * n, n), 4 ** n)


def product_space_oracle(dim, half_steps):
    """Second independent enumerator: decode every full path, sum its steps.

    Path number r, written in base 2k, lists its 2n steps as digits (digit
    d: axis d//2, +1 for even d, -1 for odd); every path is decoded at
    once, one digit position at a time.
    """
    base = 2 * dim
    paths = np.arange(base ** (2 * half_steps))
    rows = np.arange(paths.size)
    disp = np.zeros((paths.size, dim), dtype=np.int8)  # |disp| <= 2n <= 16
    for _ in range(2 * half_steps):
        paths, digit = np.divmod(paths, base)
        disp[rows, digit // 2] += (1 - 2 * (digit % 2)).astype(np.int8)
    return int(np.count_nonzero(~disp.any(axis=1)))


def test_return_probability_examples():
    assert return_probability(1, 1) == Fraction(1, 2)
    assert return_probability(2, 1) == Fraction(1, 4)
    assert return_probability(3, 2) == Fraction(5, 72)


def test_return_probability_odd():
    assert return_probability_odd(1, 3) == 0
    assert return_probability_odd(2, 1) == 0
    assert return_probability_odd(5, 7) == 0
    with pytest.raises(ValueError):
        return_probability_odd(1, 4)
    with pytest.raises(ValueError):
        return_probability_odd(1, -3)


def test_closed_forms():
    assert closed_form_1d(2) == Fraction(3, 8)
    assert closed_form_2d(1) == Fraction(1, 4)
    central = math.comb(10, 5)
    assert closed_form_2d(5) == Fraction(central * central, 4 ** 10)
    assert closed_form_2d(5) == Fraction(3969, 65536)


def test_closed_form_consistency():
    for n in range(1, 31):
        assert return_probability(1, n) == closed_form_1d(n)
    for n in range(1, 21):
        assert return_probability(2, n) == closed_form_2d(n)


def test_path_count_one_dimension_is_the_central_binomial():
    for n in range(1, 2001):
        assert path_count(1, n).probability == closed_form_1d(n), n


def test_path_count_dimensions():
    pc = path_count(3, 2)
    assert pc.count == 90
    assert pc.total_paths == 6 ** 4
    assert pc.probability == Fraction(5, 72)


def literal_path_count(dim, half_steps):
    """The per-axis round-trip composition sum, term by term."""
    f2n = math.factorial(2 * half_steps)
    return sum(f2n // math.prod(math.factorial(i) ** 2 for i in comp)
               for comp in weak_compositions(half_steps, dim))


def test_path_count_matches_literal_composition_sum():
    # sizes beyond brute_force_return's budget
    for dim in range(1, 7):
        for n in range(1, 11):
            pc = path_count(dim, n)
            assert pc.count == literal_path_count(dim, n), (dim, n)
            assert pc.total_paths == (2 * dim) ** (2 * n)


def test_path_count_in_the_plane_is_a_squared_central_binomial():
    for n in range(1, 60):
        assert path_count(2, n).count == math.comb(2 * n, n) ** 2, n


def test_path_count_in_space_follows_the_oeis_recurrence():
    # OEIS A002896: n^3 a(n) = 2 (2n-1)(10n^2-10n+3) a(n-1)
    #                          - 36 (n-1)(2n-1)(2n-3) a(n-2)
    a = [1, 6]
    for n in range(2, 60):
        a.append((2 * (2 * n - 1) * (10 * n * n - 10 * n + 3) * a[n - 1]
                  - 36 * (n - 1) * (2 * n - 1) * (2 * n - 3) * a[n - 2])
                 // n ** 3)
    for n in range(1, 60):
        assert path_count(3, n).count == a[n], n


def folded_path_count(dim, half_steps):
    """C(2n, n) T_dim(n), T folded in one axis at a time:
    T_1 = 1 and T_j(m) = sum_i C(m, i)^2 T_(j-1)(m - i)."""
    n = half_steps
    t = [1] * (n + 1)
    for _ in range(dim - 1):
        t = [sum(math.comb(m, i) ** 2 * t[m - i] for i in range(m + 1))
             for m in range(n + 1)]
    return math.comb(2 * n, n) * t[n]


def test_path_count_matches_the_axis_fold():
    for dim in range(1, 9):
        for n in range(1, 41):
            assert path_count(dim, n).count == folded_path_count(dim, n), \
                (dim, n)


def test_path_count_budget_at_its_edge(monkeypatch):
    for dim, n in [(1, 40), (2, 12), (5, 8), (30, 3)]:
        work = _count_work(dim, n)
        monkeypatch.setattr(walks, "COUNT_WORK_BUDGET", work)
        assert path_count(dim, n).count == literal_path_count(dim, n)
        monkeypatch.setattr(walks, "COUNT_WORK_BUDGET", work - 1)
        with pytest.raises(InputError) as info:
            path_count(dim, n)
        assert str(info.value) == (
            f"path count at dim={dim}, half_steps={n} needs about {work} "
            f"limb operations (budget is {work - 1})")


def test_default_count_budget_admits_the_known_runs():
    # the goldens, the benchmark commands and the largest named runs
    for dim, n in [(2, 5), (3, 2), (4, 8), (6, 10), (3, 10), (6, 25),
                   (5, 30), (6, 30), (3, 400), (20, 200), (1, 7500)]:
        assert _count_work(dim, n) <= COUNT_WORK_BUDGET, (dim, n)
    # the largest admitted two-dimensional count, the slowest per unit
    assert _count_work(2, 847) <= COUNT_WORK_BUDGET < _count_work(2, 848)


@pytest.mark.parametrize("dim, n", [(2, 848), (2, 2000), (1, 2_000_000),
                                    (10 ** 6, 1), (1, 10 ** 400)])
def test_default_count_budget_refuses_at_once(dim, n):
    start = time.perf_counter()
    with pytest.raises(InputError):
        path_count(dim, n)
    with pytest.raises(InputError):
        return_probability(dim, n)
    assert time.perf_counter() - start < 1.0


def test_odd_path_count_and_its_budget(monkeypatch):
    assert path_count_odd(2, 3) == PathCount(0, 64)
    steps = 12_001
    monkeypatch.setattr(walks, "COUNT_WORK_BUDGET", _limbs(1, steps) ** 2)
    assert path_count_odd(1, steps).total_paths == 2 ** steps
    monkeypatch.setattr(walks, "COUNT_WORK_BUDGET", _limbs(1, steps) ** 2 - 1)
    with pytest.raises(InputError):
        path_count_odd(1, steps)
    with pytest.raises(InputError):
        path_count_odd(1, 4)


def test_brute_force_examples():
    assert brute_force_return(1, 2) == PathCount(6, 16)
    assert brute_force_return(2, 2) == PathCount(36, 256)
    assert brute_force_return(3, 2) == PathCount(90, 1296)


def _cases_within(budget):
    """Every (dim, n) whose (2 dim)^(2n) full paths fit in budget."""
    return [(dim, n) for dim in range(1, math.isqrt(budget) // 2 + 1)
            for n in itertools.takewhile(
                lambda n: (2 * dim) ** (2 * n) <= budget, itertools.count(1))]


def test_product_space_oracle_decodes_like_a_loop():
    # the tuple-by-tuple loop the vectorized decode replaced, on small cases
    for dim, half in [(1, 1), (1, 4), (2, 2), (3, 2), (8, 1)]:
        hits = 0
        for path in itertools.product(range(2 * dim), repeat=2 * half):
            disp = [0] * dim
            for step in path:
                disp[step // 2] += 1 if step % 2 == 0 else -1
            hits += not any(disp)
        assert product_space_oracle(dim, half) == hits, (dim, half)


def test_brute_force_matches_product_space_oracle():
    cases = _cases_within(65536)
    assert len(cases) == 145 and max(cases) == (128, 1)
    for dim, half in cases:
        expected = product_space_oracle(dim, half)
        assert brute_force_return(dim, half).count == expected, (dim, half)


@pytest.mark.parametrize("dim", range(1, 9))
def test_brute_force_at_the_budget_edge(dim):
    n = max(n for d, n in _cases_within(DEFAULT_PATH_BUDGET) if d == dim)
    assert brute_force_return(dim, n) == path_count(dim, n)
    with pytest.raises(InputError, match="enumeration at"):
        brute_force_return(dim, n + 1)


def test_brute_force_wide_dimension():
    # 2000 half sequences of 1000-axis displacements, 4e6 full paths
    assert (brute_force_return(1000, 1, budget=4_000_000)
            == path_count(1000, 1))


def test_brute_force_agrees_with_closed_sum():
    for dim, max_n in [(1, 6), (2, 3), (3, 2)]:
        for n in range(1, max_n + 1):
            assert (brute_force_return(dim, n).probability
                    == return_probability(dim, n))


def test_brute_force_budget():
    with pytest.raises(InputError, match=fr"enumeration at dim=3, "
                       fr"half_steps=10 needs about {6 ** 20} paths "
                       fr"\(budget is {DEFAULT_PATH_BUDGET}\)"):
        brute_force_return(3, 10)
    # a tailored budget admits the same case the default refuses
    assert brute_force_return(2, 2, budget=256).total_paths == 256
    with pytest.raises(InputError, match="needs about 256 paths"):
        brute_force_return(2, 2, budget=255)


def test_brute_force_refuses_far_over_budget_by_size():
    # within 64 bits of the budget the count is formed and shown in full,
    # beyond that its size alone refuses it, shown as a power of two
    with pytest.raises(InputError, match=fr"needs about {4 ** 36} paths "
                       r"\(budget is 255\)$"):
        brute_force_return(2, 18, budget=255)
    with pytest.raises(InputError, match=r"half_steps=19 needs about 2\^76 "
                       r"paths \(budget is 255\)$"):
        brute_force_return(2, 19, budget=255)
    with pytest.raises(InputError, match=fr"dim=3, half_steps={10 ** 30} "
                       r"needs about 2\^516992500144231\d{16} paths"):
        brute_force_return(3, 10 ** 30)


def test_probability_range_and_monotonicity():
    for dim in (1, 2, 3):
        values = [return_probability(dim, n) for n in range(1, 11)]
        assert all(0 < v <= 1 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_walk_spec_validation():
    spec = WalkSpec(2, 5)
    assert (spec.dimension, spec.half_steps) == (2, 5)
    with pytest.raises(ValueError):
        WalkSpec(0, 1)
    with pytest.raises(ValueError):
        WalkSpec(1, 0)
    with pytest.raises(ValueError) as excinfo:
        PathCount(5, 4)
    # the CLI builds a PathCount only from computed counts, so a broken
    # invariant is a fault of the program, not a rejected input
    assert not isinstance(excinfo.value, InputError)


def test_simulate_walk_determinism_and_fields():
    spec = WalkSpec(1, 1)
    first = simulate_walk(spec, 50_000, seed=42, workers=3)
    second = simulate_walk(spec, 50_000, seed=42, workers=3)
    assert first == second
    assert first.trials == 50_000
    assert first.estimate == first.hits / first.trials
    expected_se = math.sqrt(first.estimate * (1 - first.estimate)
                            / first.trials)
    assert first.std_error == pytest.approx(expected_se, rel=1e-15)
    assert first.exact_reference == Fraction(1, 2)
    assert abs(first.z_score) < 4
    assert first.seed == 42 and first.workers == 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim, n", [(1, 5), (2, 100), (4, 50), (6, 3),
                                    (3, 10), (2, 40)])
def test_simulate_walk_agrees_with_exact(dim, n, workers):
    # (2, 40): the 80-step axis split takes numpy's binomial, the plus
    # steps (Binomial(80, 1/2) tops 64 with odds 7e-9) take coin counts
    result = simulate_walk(WalkSpec(dim, n), 200_000, seed=dim * 1000 + n,
                           workers=workers)
    assert result.exact_reference == return_probability(dim, n)
    assert abs(result.z_score) < 4


def _peak_traced_bytes(fn) -> int:
    fn()  # load numpy and warm every lazy table first
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_walk_chunk_memory_does_not_grow_with_steps():
    # per-axis counts and signs only: no array has a dimension of 2n
    peak = _peak_traced_bytes(
        lambda: simulate_walk(WalkSpec(3, 100), 1 << 17, seed=1))
    assert peak < 16 * 2 ** 20


def test_simulate_walk_chunk_draws_no_word_or_step_matrix():
    # one raw word per coin count: no (trials x words) or (trials x 2n) array
    peak = _peak_traced_bytes(
        lambda: simulate_walk(WalkSpec(3, 10), 1 << 17, seed=1))
    assert peak < 8 * 2 ** 20


def test_simulate_beta_chunk_works_in_one_buffer():
    peak = _peak_traced_bytes(
        lambda: simulate_beta_moment(3, 10, 1 << 17, seed=1))
    assert peak < 8 * 2 ** 20


def test_simulation_blocks_keep_the_working_set_small():
    # 2^14-trial blocks: a few arrays of 2^14 words live at once
    for sim in (lambda: simulate_walk(WalkSpec(3, 10), 1 << 17, seed=1),
                lambda: simulate_beta_moment(3, 10, 1 << 17, seed=1)):
        assert _peak_traced_bytes(sim) < 2 * 2 ** 20


def test_simulate_beta_memory_does_not_grow_with_dim():
    # one float32 axis at a time: a (2^14 x dim) float64 block matrix
    # would be 39 MB at dim 300
    peak = _peak_traced_bytes(
        lambda: simulate_beta_moment(300, 1, 2 ** 14, 5))
    assert peak < 2 ** 20


def test_float32_variates_keep_the_arcsine_moments():
    # numpy's float32 uniforms are the 2^24 values k 2^-24; averaged over
    # all of them, (-cos pi U)^2j formed as the kernel forms it keeps the
    # central-binomial moment C(2j, j) / 4^j to float32 rounding
    draws = _block_rng(3, 0).random(1 << 16, dtype=np.float32) * 2 ** 24
    assert np.array_equal(draws, np.floor(draws)) and draws.max() < 2 ** 24
    powers = (2, 4, 10, 20)
    sums = {power: [] for power in powers}
    for start in range(0, 1 << 24, 1 << 20):
        u = np.arange(start, start + (1 << 20), dtype=np.float32)
        u *= np.float32(2.0 ** -24)
        u *= np.float32(math.pi)
        sample = np.zeros(u.size)
        sample -= np.cos(u, out=u)
        for power in powers:
            got = _power_by_squaring(sample.copy(), power,
                                     np.empty_like(sample))
            sums[power].append(float(got.sum()))
    for power in powers:
        mean = math.fsum(sums[power]) / 2 ** 24
        exact = Fraction(math.comb(power, power // 2), 2 ** power)
        assert abs(mean / float(exact) - 1) < 1e-6, power


def _twin_streams(seed=2024):
    return _block_rng(seed, 0), _block_rng(seed, 0)


def _assert_law(counts, probabilities):
    """Chi-square test of draws ``counts`` against the law on 0..c."""
    draws = counts.size
    c = len(probabilities) - 1
    observed = np.bincount(counts, minlength=c + 1)
    expected = [draws * float(q) for q in probabilities]
    # pool each tail until its expected count reaches 5
    lo, hi = 0, c
    while sum(expected[:lo + 1]) < 5:
        lo += 1
    while sum(expected[hi:]) < 5:
        hi -= 1
    pairs = ([(observed[:lo + 1].sum(), sum(expected[:lo + 1]))]
             + [(observed[k], expected[k]) for k in range(lo + 1, hi)]
             + [(observed[hi:].sum(), sum(expected[hi:]))])
    chi2 = sum((o - e) ** 2 / e for o, e in pairs)
    df = len(pairs) - 1
    assert chi2 < df + 6 * math.sqrt(2 * df), (c, chi2, df)


def _binomial_law(c, p):
    return [math.comb(c, k) * p ** k * (1 - p) ** (c - k)
            for k in range(c + 1)]


@pytest.mark.parametrize("c", [0, 1, 2, 63, 64])
def test_fair_coin_count_has_the_binomial_law(c):
    counts = _fair_coin_counts(_block_rng(c, 0), np.full(200_000, c))
    if c == 0:
        assert not counts.any()
        return
    _assert_law(counts, _binomial_law(c, Fraction(1, 2)))


def test_inverse_table_is_the_floored_cdf():
    assert _inverse_table(2, Fraction(1, 3)) == [
        math.floor(2 ** 64 * Fraction(4, 9)),
        math.floor(2 ** 64 * Fraction(8, 9))]
    for c, p in [(1, Fraction(1, 2)), (20, Fraction(1, 3)),
                 (64, Fraction(1, 199))]:
        table = _inverse_table(c, p)
        cdf = itertools.accumulate(_binomial_law(c, p))
        assert table == [math.floor(2 ** 64 * q)
                         for q in itertools.islice(cdf, c)]
        assert table == sorted(table) and table[-1] < 2 ** 64


@pytest.mark.parametrize("c, dim", [(20, 3), (64, 199)])
def test_inverted_count_has_the_binomial_law(c, dim):
    p = Fraction(1, dim)
    table = np.array(_inverse_table(c, p), np.uint64)
    counts = _inverted_counts(_block_rng(c, 0), table, _guide(table), 200_000)
    _assert_law(counts, _binomial_law(c, p))


def test_inverted_count_is_one_word_per_draw():
    rng, twin = _twin_streams()
    table = _inverse_table(20, Fraction(1, 3))
    words = twin.bit_generator.random_raw(1000)
    expected = [sum(t <= int(w) for t in table) for w in words]
    table = np.array(table, np.uint64)
    got = _inverted_counts(rng, table, _guide(table), 1000)
    assert got.tolist() == expected
    # both streams stand at the same place afterwards
    assert rng.random() == twin.random()


class _Words:
    """A stand-in generator whose raw words are given."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = words

    def random_raw(self, m):
        assert m == self.words.size
        return self.words.copy()


@pytest.mark.parametrize("c, p", [(20, Fraction(1, 3)),
                                  (64, Fraction(1, 199)),
                                  (2, Fraction(1, 3))])
def test_guided_count_is_the_searched_count(c, p):
    table = _inverse_table(c, p)
    edges = {t + d for t in table for d in (-1, 0, 1)}
    edges |= {(i << 52) + d for i in range(4096) for d in (-1, 0)}
    words = np.concatenate([
        np.array(sorted(w for w in edges if 0 <= w < 2 ** 64), np.uint64),
        _block_rng(c, 1).bit_generator.random_raw(1 << 20)])
    table = np.array(table, np.uint64)
    got = _inverted_counts(_Words(words), table, _guide(table), words.size)
    assert np.array_equal(got, np.searchsorted(table, words, side="right"))


@pytest.mark.parametrize("c", [1, 2, 63, 64])
def test_fair_coin_count_is_the_top_bits_of_one_word(c):
    rng, twin = _twin_streams()
    words = twin.bit_generator.random_raw(1000)
    expected = [bin(int(w) >> (64 - c)).count("1") for w in words]
    assert _fair_coin_counts(rng, np.full(1000, c)).tolist() == expected
    # both streams stand at the same place afterwards
    assert rng.random() == twin.random()


def test_fair_coin_count_above_64_is_numpys_binomial():
    rng, twin = _twin_streams()
    counts = np.array([65, 3, 0, 64])
    assert (_fair_coin_counts(rng, counts).tolist()
            == twin.binomial(counts, 0.5).tolist())
    assert rng.random() == twin.random()


def test_power_by_squaring_matches_numpy_power():
    x = -np.cos(np.pi * _block_rng(5, 0).random((1 << 14, 3))).mean(axis=1)
    square = _power_by_squaring(x.copy(), 2, np.empty_like(x))
    assert np.array_equal(square, x * x)
    for power in range(2, 201, 2):
        got = _power_by_squaring(x.copy(), power, np.empty_like(x))
        ulps = np.abs(got - np.power(x, power)) / np.spacing(
            np.abs(np.power(x, power)))
        # power - 1 roundings of a product tree, plus one of libm's pow
        assert ulps.max() <= power, power


def test_simulate_walk_rejects_a_walk_length_beyond_int64():
    with pytest.raises(InputError, match="at most 9223372036854775807"):
        simulate_walk(WalkSpec(1, 2 ** 62), 10, seed=1)
    with pytest.raises(InputError, match="at most 9223372036854775807"):
        simulate_walk(WalkSpec(1, 10 ** 19), 10, seed=1)


def test_simulations_over_the_count_budget_draw_nothing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(walks, "_block_rng", no_draws)
    # 2n = 2^63 - 2 fits int64, but its exact reference is over budget
    with pytest.raises(InputError, match="limb operations"):
        simulate_walk(WalkSpec(1, 2 ** 62 - 1), 10, seed=1)
    with pytest.raises(InputError, match="limb operations"):
        simulate_walk(WalkSpec(2, 2000), 10, seed=1)
    with pytest.raises(InputError, match="limb operations"):
        simulate_beta_moment(2, 2000, 10, seed=1)


def test_multi_worker_multi_chunk_draws_are_pinned(monkeypatch):
    # ten blocks of 1000 trials, each from its own stream: the stream rule,
    # blocking and merge order, value for value, at every worker count
    monkeypatch.setattr(walks, "_CHUNK", 1000)
    reference = Fraction(2485, 93312)
    for workers in (1, 2, 3):
        walk = simulate_walk(WalkSpec(3, 4), 10_000, 2024, workers=workers)
        beta = simulate_beta_moment(3, 4, 10_000, 2024, workers=workers)
        assert walk == SimulationResult(
            10_000, 261, 0.0261, 0.0015943271307984443, reference,
            -0.33311049869556614, 2024, workers)
        assert beta == SimulationResult(
            10_000, None, 0.029474140337473368, 0.0010292335606637997,
            reference, 2.762301328393927, 2024, workers)


def test_simulate_walk_different_seed_differs():
    spec = WalkSpec(2, 2)
    a = simulate_walk(spec, 20_000, seed=1, workers=2)
    b = simulate_walk(spec, 20_000, seed=2, workers=2)
    assert a.hits != b.hits  # astronomically unlikely to collide


def test_simulate_beta_moment_determinism_and_z():
    first = simulate_beta_moment(1, 1, 100_000, seed=1, workers=2)
    second = simulate_beta_moment(1, 1, 100_000, seed=1, workers=2)
    assert first == second
    assert first.hits is None
    assert first.exact_reference == Fraction(1, 2)
    assert abs(first.z_score) < 4

    three_d = simulate_beta_moment(3, 2, 100_000, seed=9, workers=2)
    assert three_d.exact_reference == Fraction(5, 72)
    assert abs(three_d.z_score) < 4


def test_simulation_validation():
    with pytest.raises(ValueError):
        simulate_walk(WalkSpec(1, 1), 0, seed=1)
    with pytest.raises(ValueError):
        simulate_walk(WalkSpec(1, 1), 10, seed=1, workers=0)
    with pytest.raises(ValueError):
        simulate_beta_moment(0, 1, 10, seed=1)


def test_simulation_json_serialization():
    result = simulate_walk(WalkSpec(2, 1), 1000, seed=5, workers=1)
    obj = result.to_json_obj()
    assert obj["exactReference"] == "1/4"
    assert obj["exactDecimal"] == "0.25"
    assert obj["trials"] == 1000
    assert isinstance(obj["zScore"], float)


# ---------------------------------------------------------------------------
# the simulation bounds
# ---------------------------------------------------------------------------


REAL_THREAD = threading.Thread


def recording_threads(monkeypatch, started):
    """Make ``threading.Thread`` a real thread that appends itself to
    ``started`` as it starts."""
    class Recording(REAL_THREAD):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)


def _no_work(*args, **kwargs):
    raise AssertionError("a refused simulation started its work")


def test_simulation_refusals_start_no_reference_and_no_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(threading, "Thread", _no_work)
    # an admitted run at two workers does reach the patched thread
    with pytest.raises(AssertionError, match="started its work"):
        simulate_walk(WalkSpec(1, 1), 2 * walks._CHUNK, 0, workers=2)
    monkeypatch.setattr(walks, "return_probability", _no_work)
    monkeypatch.setattr(walks, "_block_rng", _no_work)
    started = time.perf_counter()
    for sim in (lambda t, w, s=0: simulate_walk(WalkSpec(3, 1), t, s,
                                                workers=w),
                lambda t, w, s=0: simulate_beta_moment(3, 1, t, s,
                                                       workers=w)):
        for workers in (1, 2):
            with pytest.raises(InputError, match=r"simulation of "
                               r"1000000000000 trials at dim=3 needs about "
                               r"3000000000000 draws \(budget is 250000000\)"):
                sim(10 ** 12, workers)
            for seed, shown in ((-1, "-1"), (2 ** 64, str(2 ** 64)),
                                (-10 ** 300, "-10^300.0")):
                with pytest.raises(InputError, match=re.escape(
                        f"seed must lie in 0..{2 ** 64 - 1}, got {shown}")):
                    sim(10, workers, seed)
        for workers in (MAX_WORKERS + 1, 10 ** 6):
            with pytest.raises(InputError,
                               match=f"workers must be at most {MAX_WORKERS}"):
                sim(10, workers)
        with pytest.raises(InputError, match="workers must be >= 1"):
            sim(10, 0)
    assert time.perf_counter() - started < 1.0


def test_simulation_bounds_hold_at_their_edge(monkeypatch):
    assert SIMULATION_WORK_BUDGET == 250_000_000
    monkeypatch.setattr(walks, "SIMULATION_WORK_BUDGET", 3000)
    monkeypatch.setattr(walks, "MAX_WORKERS", 3)
    assert simulate_walk(WalkSpec(3, 1), 1000, 0, workers=3).trials == 1000
    assert simulate_beta_moment(3, 1, 1000, 0, workers=3).trials == 1000
    with pytest.raises(InputError, match="needs about 3003 draws"):
        simulate_walk(WalkSpec(3, 1), 1001, 0, workers=3)
    with pytest.raises(InputError, match="needs about 3003 draws"):
        simulate_beta_moment(3, 1, 1001, 0, workers=3)
    with pytest.raises(InputError, match="workers must be at most 3"):
        simulate_walk(WalkSpec(3, 1), 1000, 0, workers=4)
    assert simulate_walk(WalkSpec(3, 1), 10, 2 ** 64 - 1).seed == 2 ** 64 - 1
    # a walk over 64 steps draws numpy's binomial, each draw charged as 10
    assert simulate_walk(WalkSpec(3, 32), 1000, 0).trials == 1000
    assert simulate_walk(WalkSpec(3, 33), 100, 0).trials == 100
    with pytest.raises(InputError, match="needs about 3030 draws"):
        simulate_walk(WalkSpec(3, 33), 101, 0)


def test_pool_has_at_most_one_thread_per_cpu(monkeypatch):
    # five blocks, so every stripe of up to five threads holds one
    trials = 4 * walks._CHUNK + 7
    runs = (lambda w: simulate_walk(WalkSpec(2, 2), trials, 9, workers=w),
            lambda w: simulate_beta_moment(2, 2, trials, 9, workers=w))
    expected = [run(1)._replace(workers=5) for run in runs]
    for cpus, helpers in ((2, 1), (None, 0), (64, 4)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for run, want in zip(runs, expected):
            started = []
            recording_threads(monkeypatch, started)
            # each block keeps its stream, and the merge its order
            assert run(5) == want, cpus
            assert len(started) == helpers, cpus
            assert not any(thread.is_alive() for thread in started)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    started = []
    recording_threads(monkeypatch, started)
    simulate_walk(WalkSpec(2, 2), 100, 9, workers=3)
    assert len(started) == 2  # one block: the helpers find no work
    simulate_walk(WalkSpec(2, 2), 100, 9, workers=1)
    assert len(started) == 2  # one worker starts no thread


def test_a_fault_in_a_helper_thread_exits_70_with_one_line(capsys,
                                                          monkeypatch):
    from betawalk.cli import main

    block_rng, raised_in = walks._block_rng, []

    def faulty(seed, block):
        if block == 1:
            raised_in.append(threading.current_thread())
            raise RuntimeError("block 1 failed\nsecond line")
        return block_rng(seed, block)

    monkeypatch.setattr(walks, "_block_rng", faulty)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for kind in ("walk", "beta"):
        code = main(["simulate", kind, "--dim", "2", "--n", "2", "--trials",
                     str(2 * walks._CHUNK), "--seed", "1", "--threads", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (70, ""), kind
        assert captured.err == ("betawalk: internal error: RuntimeError: "
                                "block 1 failed second line\n"), kind
    # block 1 is the helper's, and the helper has ended
    assert len(raised_in) == 2
    assert threading.main_thread() not in raised_in
    assert not any(thread.is_alive() for thread in raised_in)
