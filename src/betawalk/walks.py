"""Return probabilities of the simple symmetric walk on the integer lattice.

The walk on Z^k moves one unit along a coordinate axis, direction and axis
uniform over the 2k unit steps.  A closed path of length 2n must balance
positive and negative steps on every axis, so with i_j round trips on axis j,

    P(at origin after 2n steps) = (2k)^-2n * sum over i_1+..+i_k = n
                                  of (2n)! / (i_1!^2 ... i_k!^2)

computed here as an exact rational by an integer recurrence in n, with its
binomials from Pascal's rule and math.comb (so the walk commands never load
``exact``); a count whose estimated work exceeds ``COUNT_WORK_BUDGET`` is
refused before it starts.  Two independent oracles back it up: an
exhaustive count of every step sequence, and seeded Monte Carlo.  The count
enumerates each sequence of n steps once, tallies where it ends, and pairs
every first half ending at v with every second half ending at -v.  The
walk sampler draws no path: it draws each walk's per-axis step counts,
Multinomial(2n; 1/k, .., 1/k), and the plus steps on each axis,
Binomial(count, 1/2), and the walk is home when every axis balances; most
draws take one raw 64-bit word each.  The beta sampler draws the matching
arcsine-beta moment from float32 variates, one axis at a time.  Each block
of trials draws from its own PCG64DXSM stream, keyed by seed and block,
and every block is drawn in order on the calling thread; the worker count
is validated and recorded, not used.  Both samplers refuse more than
``SIMULATION_WORK_BUDGET`` draws, ``MAX_WORKERS`` workers or a seed outside
0..2^64-1 before they start.  Only the Monte Carlo functions use numpy, and
they import it when they run, so the exact functions load no numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, mul, neg
from typing import NamedTuple, Optional

from .render import (DEFAULT_PATH_BUDGET, MAX_WORKERS, InputError, brief,
                     check_work, decimal15, fraction_str, int_str)

__all__ = [
    "WalkSpec",
    "PathCount",
    "SimulationResult",
    "COUNT_WORK_BUDGET",
    "SIMULATION_WORK_BUDGET",
    "return_probability",
    "return_probability_odd",
    "closed_form_2d",
    "path_count",
    "path_count_odd",
    "brute_force_return",
    "simulate_walk",
    "simulate_beta_moment",
]

_CHUNK = 1 << 14  # trials per block, each block with its own stream
_GUIDE_SHIFT = 52  # a first-axis word's guide cell is its top 12 bits
_INT64_MAX = (1 << 63) - 1  # the samplers count steps in int64
_SEED_MAX = (1 << 64) - 1  # a seed is one 64-bit word
# path_count's default bound on _count_work: under 1 s on a 2-vCPU machine
COUNT_WORK_BUDGET = 50_000_000
# bound on trials * dim, one draw per trial and axis: on one thread
# 6-15 ns each (2-4 s); a walk over 64 steps draws numpy's binomial, about
# 120 ns, so each of its draws is charged _WIDE_DRAW (0.7-3 s at the budget)
SIMULATION_WORK_BUDGET = 250_000_000
_WIDE_DRAW = 10


class _WalkSpecFields(NamedTuple):
    dimension: int
    half_steps: int


class WalkSpec(_WalkSpecFields):
    """Walk on Z^dimension, observed after 2*half_steps steps."""

    __slots__ = ()

    def __new__(cls, dimension: int, half_steps: int):
        if dimension < 1:
            raise InputError("dimension must be >= 1")
        if half_steps < 1:
            raise InputError("half_steps must be >= 1")
        return tuple.__new__(cls, (dimension, half_steps))


class _PathCountFields(NamedTuple):
    count: int
    total_paths: int


class PathCount(_PathCountFields):
    """Closed-path count out of all (2k)^2n step sequences."""

    __slots__ = ()

    def __new__(cls, count: int, total_paths: int):
        if not 0 <= count <= total_paths:
            raise ValueError("count must lie in [0, total_paths]")
        return tuple.__new__(cls, (count, total_paths))

    @property
    def probability(self) -> Fraction:
        return Fraction(self.count, self.total_paths)

    def to_json_obj(self) -> dict:
        return {
            "count": int_str(self.count),
            "totalPaths": int_str(self.total_paths),
            "probability": fraction_str(self.probability),
            "decimal": decimal15(self.probability),
        }


class SimulationResult(NamedTuple):
    """Monte Carlo estimate with its exact reference and z-score.

    ``hits`` is the origin-return count for walk simulations and None for
    moment sampling, where the summand is bounded but not Bernoulli and
    ``std_error`` is the sample standard error of the mean.  With a
    standard error of 0, ``z_score`` is 0 if the estimate hits the
    reference and an infinity if it misses, which JSON writes as null.
    """

    trials: int
    hits: Optional[int]
    estimate: float
    std_error: float
    exact_reference: Fraction
    z_score: float
    seed: int
    workers: int

    def to_json_obj(self) -> dict:
        return {
            "trials": self.trials,
            "hits": self.hits,
            "estimate": self.estimate,
            "stdError": self.std_error,
            "exactReference": fraction_str(self.exact_reference),
            "exactDecimal": decimal15(self.exact_reference),
            "zScore": self.z_score if math.isfinite(self.z_score) else None,
            "seed": self.seed,
            "workers": self.workers,
        }


# ---------------------------------------------------------------------------
# exact probabilities
# ---------------------------------------------------------------------------


def _limbs(dim: int, steps: int) -> int:
    """64-bit words of (2 dim)^steps, which bounds every integer of a count:
    it has steps * ceil(log2(2 dim)) bits at most."""
    return steps * (2 * dim - 1).bit_length() // 64 + 1


def _count_work(dim: int, half_steps: int) -> int:
    """Estimated bigint work of ``path_count``, in 64-bit limb operations.

    The closing products are charged limbs^2, and dim * (n+1)(n+2)/2
    multiply-adds (none at dim 1) limbs plus 16 each for the interpreter's
    cost per term.  The recurrence makes n(n+1)/2 of them whatever dim is,
    so the estimate is an upper bound on its work.
    """
    n = half_steps
    limbs = _limbs(dim, 2 * n)
    terms = 0 if dim == 1 else dim * (n + 1) * (n + 2) // 2
    return limbs * limbs + terms * (limbs + 16)


def path_count(dim: int, half_steps: int) -> PathCount:
    """Closed-path count C(2n, n) * T_dim(n), in integers.

    T_k(m) = sum over i_1+..+i_k = m of (m! / (i_1! ... i_k!))^2
    = m!^2 [x^m] (sum_i x^i / i!^2)^k, so J.C.P. Miller's power recurrence
    gives T_k(0) = 1 and T_k(m) = (1/m) sum_{i=1..m} ((k+1) i - m)
    C(m, i)^2 T_k(m - i), an exact division.  That is O(n^2) whatever
    dim is, instead of one term per composition.  A count whose
    ``_count_work`` exceeds ``COUNT_WORK_BUDGET`` raises InputError before
    any work starts.
    """
    if dim < 1 or half_steps < 1:
        raise InputError("dim and half_steps must be >= 1")
    n = half_steps
    check_work(f"path count at dim={brief(dim)}, half_steps={brief(n)}",
               _count_work(dim, n), COUNT_WORK_BUDGET)
    t, row = [1], [1]
    if dim > 1:  # T_1 = 1 needs no recurrence
        for m in range(1, n + 1):
            row = [1, *map(add, row, row[1:]), 1]  # C(m, i) for i = 0..m
            # the terms for i = 1..m: weight (dim+1) i - m, C(m, i)^2, T(m-i)
            weights = range(dim + 1 - m, dim * m + 1, dim + 1)
            squares = map(mul, row[1:], row[1:])
            t.append(sum(map(mul, map(mul, weights, squares), reversed(t)))
                     // m)
    return PathCount(math.comb(2 * n, n) * t[-1], (2 * dim) ** (2 * n))


def return_probability(dim: int, half_steps: int) -> Fraction:
    """Probability the walk on Z^dim sits at the origin after 2n steps."""
    return path_count(dim, half_steps).probability


def return_probability_odd(dim: int, steps: int) -> Fraction:
    """After an odd number of steps the walk cannot be at the origin."""
    if steps < 1 or steps % 2 == 0:
        raise InputError("steps must be a positive odd integer")
    if dim < 1:
        raise InputError("dim must be >= 1")
    return Fraction(0)


def path_count_odd(dim: int, steps: int) -> PathCount:
    """No closed path has odd length: 0 out of (2 dim)^steps, whose
    limbs^2 is held to ``COUNT_WORK_BUDGET`` as in ``path_count``."""
    return_probability_odd(dim, steps)
    check_work(f"path total at dim={brief(dim)}, steps={brief(steps)}",
               _limbs(dim, steps) ** 2, COUNT_WORK_BUDGET)
    return PathCount(0, (2 * dim) ** steps)


def closed_form_2d(n: int) -> Fraction:
    """C(2n, n)^2 / 4^(2n), the planar reduction via Vandermonde."""
    if n < 1:
        raise InputError("n must be >= 1")
    central = math.comb(2 * n, n)
    return Fraction(central * central, 4 ** (2 * n))


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------


def brute_force_return(dim: int, half_steps: int,
                       budget: int = DEFAULT_PATH_BUDGET) -> PathCount:
    """Count closed paths over all (2k)^2n step sequences, half by half.

    A path of 2n steps is a first half of n steps followed by a second
    half of n steps, and it is closed exactly when the two halves'
    displacement vectors cancel.  So each of the (2k)^n half sequences is
    walked once (digit d: axis d//2, direction +1 for even d, -1 for odd),
    N(v) counts the halves that end at v, and the closed paths number
    sum_v N(v) N(-v).  ``budget`` bounds the full paths covered, (2k)^2n,
    not the halves walked; a larger count raises InputError.  The count
    is formed only when its bit length, 2n log2(2k), is within 64 bits of
    the budget's, so a refusal far over it shows 2^(that estimate).
    """
    if dim < 1 or half_steps < 1:
        raise InputError("dim and half_steps must be >= 1")
    what = f"enumeration at dim={brief(dim)}, half_steps={brief(half_steps)}"
    num, den = math.log2(2 * dim).as_integer_ratio()
    bits = 2 * half_steps * num // den  # floor of 2n log2(2k)
    if bits > budget.bit_length() + 64:
        raise InputError(f"{what} needs about 2^{brief(bits)} paths "
                         f"(budget is {brief(budget)})")
    total = (2 * dim) ** (2 * half_steps)
    check_work(what, total, budget, "paths")

    ends: Counter[tuple[int, ...]] = Counter()
    for half in product(range(2 * dim), repeat=half_steps):
        disp = [0] * dim
        for d in half:
            disp[d >> 1] += 1 if d & 1 == 0 else -1
        ends[tuple(disp)] += 1
    hits = sum(c * ends[tuple(map(neg, v))] for v, c in ends.items())
    return PathCount(hits, total)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _block_rng(seed: int, block: int) -> "np.random.Generator":
    import numpy as np

    root = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64DXSM(root))


def _fair_coin_counts(rng, counts):
    """Binomial(c, 1/2) for each c in ``counts``: heads among c fair coins.

    The coins are the top c bits of one raw 64-bit word per draw (a shift
    by 64 leaves 0, so c = 0 counts nothing).  A call in which some c
    exceeds 64 draws numpy's binomial instead of several words per draw.
    """
    import numpy as np

    if counts.size and int(counts.max()) > 64:
        return rng.binomial(counts, 0.5)
    words = rng.bit_generator.random_raw(counts.size)
    words >>= (64 - counts).astype(np.uint64)
    return np.bitwise_count(words)


def _inverse_table(c: int, p: Fraction) -> list[int]:
    """floor(2^64 P(X <= j)) for j = 0..c-1, X ~ Binomial(c, p), exactly.

    A uniform 64-bit word w gives X = #{j : table[j] <= w}, which takes
    each value with its probability to within 2^-64.
    """
    a, b = p.numerator, p.denominator
    cdf, table = 0, []
    for j in range(c):
        cdf += math.comb(c, j) * a ** j * (b - a) ** (c - j)
        table.append((cdf << 64) // b ** c)
    return table


def _guide(table):
    """For each cell of the words that share their top 12 bits, the count
    ``searchsorted(table, w, side="right")`` of all its words w, or -1
    where the cell holds a threshold of ``table``."""
    import numpy as np

    cells = np.arange(4096, dtype=np.uint64) << _GUIDE_SHIFT
    guide = np.searchsorted(table, cells, side="right")
    guide[table >> _GUIDE_SHIFT] = -1
    return guide


def _inverted_counts(rng, table, guide, m: int):
    """m draws of the law whose ``_inverse_table`` is ``table``, one raw
    64-bit word each: ``_guide(table)`` gives a word its count, and only
    the words of a cell holding a threshold search ``table`` for it."""
    import numpy as np

    words = rng.bit_generator.random_raw(m)
    counts = guide.take((words >> _GUIDE_SHIFT).view(np.int64))
    unsure = np.flatnonzero(counts < 0)
    counts[unsure] = np.searchsorted(table, words[unsure], side="right")
    return counts


def _power_by_squaring(base, exponent: int, out):
    """Write base ** exponent into ``out`` by square-and-multiply.

    ``base`` is squared in place; ``out`` starts at 1, and 1 * x is exact,
    so exponent 2 gives x * x bit for bit.
    """
    out.fill(1.0)
    while exponent:
        if exponent & 1:
            out *= base
        exponent >>= 1
        if exponent:
            base *= base
    return out


def _check_simulation(trials: int, dim: int, seed: int, workers: int,
                      draw_cost: int = 1) -> None:
    """Refuse, before the exact reference and any draw, a trial count whose
    trials * dim draws, each charged ``draw_cost``, exceed
    ``SIMULATION_WORK_BUDGET``, a seed outside 0..``_SEED_MAX`` (one
    stream per seed, none shared by two seeds) and a worker count outside
    1..``MAX_WORKERS``."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not 0 <= seed <= _SEED_MAX:
        raise InputError(f"seed must lie in 0..{_SEED_MAX}, "
                         f"got {brief(seed)}")
    if workers < 1:
        raise InputError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise InputError(f"workers must be at most {MAX_WORKERS}")
    check_work(f"simulation of {brief(trials)} trials at dim={brief(dim)}",
               trials * dim * draw_cost, SIMULATION_WORK_BUDGET, "draws")


def _draw(chunk, trials: int, seed: int) -> list:
    """``chunk(rng, m)`` for every block of trials, in block order, on the
    calling thread.

    Block b holds the trials from b * ``_CHUNK`` on, at most ``_CHUNK`` of
    them, and draws from its own PCG64DXSM stream, seeded by the
    SeedSequence of (seed, b).  So for fixed (seed, trials) every run is
    bit-identical.
    """
    return [chunk(_block_rng(seed, b), min(_CHUNK, trials - b * _CHUNK))
            for b in range(-(-trials // _CHUNK))]


def simulate_walk(spec: WalkSpec, trials: int, seed: int,
                  workers: int = 1) -> SimulationResult:
    """Estimate the return probability from independent simulated walks.

    Each trial costs O(dim) binomial draws, whatever the walk length: the
    axis counts come one axis at a time by the chain rule,
    c_a ~ Binomial(left, 1/(dim - a)) on the steps still unassigned, and
    the plus steps on an axis as Binomial(c_a, 1/2).  A trial already
    unbalanced on an earlier axis is dropped and draws nothing more; its
    indicator is 0 whatever the later draws, so the law of ``hits`` is the
    same.  Every Binomial(c, 1/2) -- the plus steps, and the axis count
    when two axes are left -- is a ``_fair_coin_counts`` draw.  The first
    axis count, Binomial(2n, 1/dim), is the same law for every trial, so
    at dim >= 3 and 2n <= 64 it inverts one raw word against the CDF table
    and its guide, made once per run.  ``workers`` is validated and
    recorded in the result, not used: every block is drawn on the calling
    thread.  The trial and worker counts are checked first, each draw of a
    walk over 64 steps charged as ``_WIDE_DRAW``, then the exact reference
    is computed, so a count over its work budget fails before anything is
    drawn.
    """
    dim, steps = spec.dimension, 2 * spec.half_steps
    _check_simulation(trials, dim, seed, workers,
                      1 if steps <= 64 else _WIDE_DRAW)
    if steps > _INT64_MAX:
        raise InputError(f"the walk length 2n must be at most {_INT64_MAX}")
    reference = return_probability(dim, spec.half_steps)
    import numpy as np

    table = (np.array(_inverse_table(steps, Fraction(1, dim)), np.uint64)
             if dim >= 3 and steps <= 64 else None)
    guide = None if table is None else _guide(table)

    def chunk(rng, m: int) -> int:
        left = np.full(m, steps)  # steps not yet assigned to an axis
        for a in range(dim - 1):
            if a == 0 and table is not None:
                count = _inverted_counts(rng, table, guide, m)
            elif dim - a == 2:
                count = _fair_coin_counts(rng, left)
            else:
                count = rng.binomial(left, 1.0 / (dim - a))
            balanced = 2 * _fair_coin_counts(rng, count) == count
            left = (left - count)[balanced]
        return int(np.count_nonzero(2 * _fair_coin_counts(rng, left) == left))

    hits = sum(_draw(chunk, trials, seed))
    estimate = hits / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    z_score = _z_score(estimate, std_error, reference)
    return SimulationResult(trials, hits, estimate, std_error, reference,
                            z_score, seed, workers)


def simulate_beta_moment(dim: int, half_steps: int, trials: int, seed: int,
                         workers: int = 1) -> SimulationResult:
    """Estimate the matching arcsine-beta moment by direct sampling.

    Each variate is V = -cos(pi W) with W uniform on [0, 1) -- the exact
    inverse CDF of the centered arcsine law.  W is a float32 multiple of
    2^-24 and the cosine is float32, which moves E V^2j by about 1e-7
    relative for j <= 10.  The estimate averages ((V_1+..+V_k)/k)^(2n) in
    float64, the power taken by repeated squaring; chunk sums merge through
    math.fsum, which is exact compensated summation.  As in
    ``simulate_walk``, ``workers`` is recorded, not used, and the counts
    are checked and the exact reference computed before any draw.
    """
    if dim < 1 or half_steps < 1:
        raise InputError("dim and half_steps must be >= 1")
    _check_simulation(trials, dim, seed, workers)
    reference = return_probability(dim, half_steps)
    import numpy as np

    power = 2 * half_steps

    def chunk(rng, m: int) -> tuple[float, float]:
        # one axis at a time: the block never holds an (m, dim) matrix
        variates = np.empty(m, np.float32)
        sample = np.zeros(m)
        for _ in range(dim):
            rng.random(out=variates, dtype=np.float32)
            variates *= np.float32(math.pi)
            sample -= np.cos(variates, out=variates)
        sample /= dim
        sample = _power_by_squaring(sample, power, np.empty(m))
        total = float(sample.sum())
        sample *= sample
        return total, float(sample.sum())

    sums, squares = zip(*_draw(chunk, trials, seed))
    total, total_sq = math.fsum(sums), math.fsum(squares)
    estimate = total / trials
    if trials > 1:
        variance = max(0.0, (total_sq - trials * estimate * estimate)
                       / (trials - 1))
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    z_score = _z_score(estimate, std_error, reference)
    return SimulationResult(trials, None, estimate, std_error, reference,
                            z_score, seed, workers)


def _z_score(estimate: float, std_error: float, reference: Fraction) -> float:
    if std_error > 0.0:
        return (estimate - float(reference)) / std_error
    if estimate == float(reference):
        return 0.0
    return math.copysign(math.inf, estimate - float(reference))
