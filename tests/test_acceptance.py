"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
lines and timings.
"""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

from betawalk.catalog import CATALOG
from betawalk.cli import main
from betawalk.exact import PiRational
from betawalk.moments import verify_master
from betawalk.numeric import evaluate_series
from betawalk.walks import (
    WalkSpec,
    brute_force_return,
    return_probability,
    simulate_beta_moment,
    simulate_walk,
)

P_GRID = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def _coeff_choices(k):
    return (
        (Fraction(1),) * k,
        (Fraction(1, k),) * k,
        tuple(Fraction(1, i + 2) for i in range(k)),  # 1/2, 1/3, ...
    )


def _grid_points():
    for n in range(1, 7):
        for k in range(1, 5):
            for p in P_GRID:
                for coeffs in _coeff_choices(k):
                    yield n, k, p, coeffs


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_master_identity_exact_suite():
    started = time.perf_counter()
    points = 0
    for n, k, p, coeffs in _grid_points():
        rep = verify_master(n, coeffs, p)
        assert rep.verified, (n, k, str(p), coeffs)
        assert rep.lhs == rep.rhs
        points += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("1 master-identity-exact-suite",
            f"{points} points, zero failures, {elapsed:.1f}s")


def test_criterion_2_moment_walk_correspondence():
    started = time.perf_counter()
    for k in range(1, 6):
        for n in range(1, 9):
            moment = verify_master(n, (Fraction(1, k),) * k, "1/2").rhs
            assert moment == PiRational(return_probability(k, n)), (k, n)
    for n in range(1, 21):
        assert return_probability(1, n) == Fraction(math.comb(2 * n, n),
                                                    4 ** n)
        assert return_probability(2, n) == Fraction(math.comb(2 * n, n) ** 2,
                                                    4 ** (2 * n))
    assert return_probability(3, 2) == Fraction(5, 72)
    elapsed = time.perf_counter() - started
    _report("2 moment-walk-correspondence",
            f"k<=5 n<=8 exact, closed forms n<=20, {elapsed:.1f}s")


def test_criterion_3_brute_force_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    for dim, max_n in ((1, 10), (2, 5), (3, 3)):
        for n in range(1, max_n + 1):
            oracle = brute_force_return(dim, n)
            assert oracle.probability == return_probability(dim, n), (dim, n)
            cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("3 brute-force-oracle-equivalence",
            f"{cases} cases exact-equal, {elapsed:.1f}s")


def test_criterion_4_identity_catalog():
    started = time.perf_counter()
    total = 0
    for name in CATALOG:
        reports = list(CATALOG[name].run())
        assert all(r.verified for r in reports), name
        total += len(reports)

    # the four errata, each with a machine-reproduced stated-form failure
    errata = {
        "convolution": (PiRational(Fraction(2)), PiRational(Fraction(4))),
        "alternating": (PiRational(Fraction(-1)),
                        PiRational(Fraction(1, 2))),
        "k-dim-remark": (PiRational(Fraction(17)), PiRational(Fraction(2))),
        "two-dim-remark": (PiRational(Fraction(1, 10)),
                           PiRational(Fraction(1, 4))),
    }
    for name, (lhs, rhs) in errata.items():
        entry = CATALOG[name]
        assert entry.variant == "corrected" and entry.erratum
        demo = entry.counterexample()
        assert not demo.verified
        assert (demo.lhs, demo.rhs) == (lhs, rhs), name
    # the upper-limit erratum shows up in the general-shape entry too
    demo = CATALOG["one-dim-general-p"].counterexample()
    assert not demo.verified
    assert (demo.lhs, demo.rhs) == (PiRational(Fraction(-1), 2),
                                    PiRational(Fraction(1, 2), 2))
    elapsed = time.perf_counter() - started
    _report("4 identity-catalog",
            f"{total} range points verified, 4 errata reproduced, "
            f"{elapsed:.1f}s")


def test_criterion_5_monte_carlo_statistics():
    trials = 10 ** 6
    workers = 4
    walk_seeds = {(1, 1): 42, (2, 5): 7, (3, 2): 11}
    beta_seeds = {(1, 1): 1, (2, 5): 5, (3, 2): 9}
    checked = []
    for (dim, n), seed in walk_seeds.items():
        started = time.perf_counter()
        result = simulate_walk(WalkSpec(dim, n), trials, seed,
                               workers=workers)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, (dim, n)
        assert abs(result.z_score) < 4.0, (dim, n, result.z_score)
        rerun = simulate_walk(WalkSpec(dim, n), trials, seed,
                              workers=workers)
        assert (json.dumps(result.to_json_obj())
                == json.dumps(rerun.to_json_obj()))
        checked.append(f"walk({dim},{n})z={result.z_score:+.2f}")
    reference_2_5 = Fraction(3969, 65536)
    for (dim, n), seed in beta_seeds.items():
        started = time.perf_counter()
        result = simulate_beta_moment(dim, n, trials, seed, workers=workers)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, (dim, n)
        assert abs(result.z_score) < 4.0, (dim, n, result.z_score)
        if (dim, n) == (2, 5):
            assert result.exact_reference == reference_2_5
            assert abs(result.estimate - float(reference_2_5)) \
                < 4 * result.std_error
        rerun = simulate_beta_moment(dim, n, trials, seed, workers=workers)
        assert (json.dumps(result.to_json_obj())
                == json.dumps(rerun.to_json_obj()))
        checked.append(f"beta({dim},{n})z={result.z_score:+.2f}")
    _report("5 monte-carlo-statistics",
            "10^6 trials, byte-identical reruns, " + " ".join(checked))


def _float_records(argv):
    """The payloads of ``verify master --mode float``, which exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "master", *argv, "--mode", "float",
                     "--format", "json"])
    assert code == 0, argv
    return [json.loads(line)["payload"] for line in out.getvalue().splitlines()]


def test_criterion_6_float_path_calibration():
    # Float mode reads each decimal as the rational it writes and runs the
    # exact engine: at every grid point, and at the decimal shapes 0.3,
    # 0.7 and 2.4 over the same weights, both sides are the exact moment
    # rounded once and the verdict is exact.  (Summed in doubles, the
    # alternating side has a condition number up to ~1.5e8 on this grid,
    # and 1.3e19 at n = 20, k = 1.)
    started = time.perf_counter()
    points = 0
    for p_text in (*map(str, P_GRID), "0.3", "0.7", "2.4"):
        p = Fraction(p_text)
        for k in range(1, 5):
            for coeffs in _coeff_choices(k):
                records = _float_records(
                    ["--n", "1..6", "--coeffs", ",".join(map(str, coeffs)),
                     "--p", p_text])
                for n, record in enumerate(records, 1):
                    exact = float(verify_master(n, coeffs, p).lhs)
                    assert record == {"lhs": exact, "rhs": exact,
                                      "relDiff": 0.0, "passed": True}, \
                        (n, k, p_text, coeffs)
                points += len(records)
    elapsed = time.perf_counter() - started
    _report("6 float-path-calibration",
            f"{points} records, each side the exact value rounded once, "
            f"{elapsed:.1f}s")


def test_criterion_7_series_diagnostic():
    run = evaluate_series(0, "printed")
    assert not run.converged
    assert run.diverged
    # terms eventually increase, shown with exact rational values
    assert run.exact_terms[0] == "2/1"
    tail = run.terms[2:]
    assert all(a < b for a, b in zip(tail, tail[1:]))
    assert len(run.exact_terms) == len(run.terms)
    _report("7 series-diagnostic",
            f"stated variant diverges at n=0 after {run.terms_evaluated} "
            f"terms, exact terms recorded")
