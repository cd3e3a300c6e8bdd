import errno
import gc
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from betawalk import catalog, cli
from betawalk.cli import _parse_decimal, main
from betawalk.moments import verify_master
from betawalk.render import brief
from betawalk.walks import MAX_WORKERS

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_return_prob(capsys):
    code, out, _ = run_cli(capsys, "compute", "return-prob",
                           "--dim", "1", "--steps", "4")
    assert code == 0
    assert out == "3/8 0.375\n"

    code, out, _ = run_cli(capsys, "compute", "return-prob",
                           "--dim", "3", "--steps", "4")
    assert code == 0
    assert out.startswith("5/72 ")

    code, out, _ = run_cli(capsys, "compute", "return-prob",
                           "--dim", "2", "--steps", "10")
    assert out.split()[0] == "3969/65536"
    assert out.split()[1].startswith("0.0605621337890625")


def test_compute_moment(capsys):
    code, out, _ = run_cli(capsys, "compute", "moment", "--n", "3", "--p", "1")
    assert code == 0
    assert out.split()[0] == "1/7"


def test_compute_moment_of_a_telescoping_shape_at_large_n(capsys):
    # at an integer p only p factors are left, so the budget admits long runs
    for n, value in (("8000", "1/16001"), ("20000", "1/40001")):
        code, out, _ = run_cli(capsys, "compute", "moment", "--n", n,
                               "--p", "1")
        assert code == 0
        assert out.split()[0] == value


def test_compute_moment_at_non_half_integer_shape(capsys):
    code, out, _ = run_cli(capsys, "compute", "moment",
                           "--n", "2", "--p", "1/3")
    assert code == 0
    assert out.split()[0] == "27/55"

    # exact mode takes rationals only
    code, out, err = run_cli(capsys, "compute", "moment",
                             "--n", "2", "--p", "0.5")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_compute_odd_steps(capsys):
    code, out, err = run_cli(capsys, "compute", "return-prob",
                             "--dim", "2", "--steps", "5")
    assert code == 2
    assert out == ""
    assert "odd" in err

    code, out, _ = run_cli(capsys, "compute", "return-prob",
                           "--dim", "2", "--steps", "5", "--allow-odd")
    assert code == 0
    assert out == "0/1 0\n"


def test_compute_path_count(capsys):
    code, out, _ = run_cli(capsys, "compute", "path-count",
                           "--dim", "3", "--steps", "4")
    assert code == 0
    assert out.split()[0] == "90/1296"


def test_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--dim", "2", "--steps", "4")
    assert code == 0
    assert out == "36/256 match\n"

    code, out, _ = run_cli(capsys, "oracle", "--dim", "1", "--steps", "4")
    assert code == 0
    assert out == "6/16 match\n"


def test_oracle_budget_exceeded(capsys):
    code, out, err = run_cli(capsys, "oracle", "--dim", "3", "--steps", "20")
    assert code == 2
    assert out == ""
    assert str(6 ** 20) in err


def test_oracle_budget_counts_full_paths(capsys):
    # dim 2, 4 steps: 4^4 = 256 full paths, though only 16 halves are walked
    code, out, _ = run_cli(capsys, "oracle", "--dim", "2", "--steps", "4",
                           "--budget", "256")
    assert code == 0
    assert out == "36/256 match\n"

    code, out, err = run_cli(capsys, "oracle", "--dim", "2", "--steps", "4",
                             "--budget", "255")
    assert code == 2
    assert out == ""
    assert err == ("betawalk: error: enumeration at dim=2, half_steps=2 "
                   "needs about 256 paths (budget is 255)\n")


def test_oracle_at_the_default_budget(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--dim", "3", "--steps", "8")
    assert code == 0
    assert out.split() == ["44730/1679616", "match"]


def test_verify_master_exact(capsys):
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "1..4",
                           "--coeffs", "1/3,1/3,1/3", "--p", "1/2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("verified=true" in line for line in lines)
    assert "lhs=5/72 rhs=5/72" in lines[1]


def test_verify_master_rejects_bad_p(capsys):
    code, out, err = run_cli(capsys, "verify", "master", "--n", "1",
                             "--coeffs", "1", "--p", "0")
    assert code == 2
    assert out == ""
    assert "p must be > 0" in err


def test_verify_master_rejects_decimal_p_in_exact_mode(capsys):
    code, out, err = run_cli(capsys, "verify", "master", "--n", "1",
                             "--coeffs", "1", "--p", "0.7")
    assert code == 2
    assert "rational" in err


def test_verify_master_requires_one_coefficient_source(capsys):
    code, _, err = run_cli(capsys, "verify", "master", "--n", "1", "--p", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "master", "--n", "1", "--p", "1",
                           "--coeffs", "1", "--k", "2")
    assert code == 2


def test_verify_master_k_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "1..2",
                           "--k", "1..3", "--p", "1", "--threads", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_verify_master_float_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "2",
                           "--coeffs", "1,2", "--p", "0.7", "--mode", "float")
    assert code == 0
    assert "p=7/10 coeffs=1,2 " in out
    assert "relDiff=0.0 passed=true" in out


def test_verify_master_float_verdict_is_exact_at_every_record(capsys):
    # float mode reads 0.7 as 7/10 and runs the exact engine, so every
    # record passes, however badly an alternating sum in doubles would
    # cancel (condition number 1.3e19 at n = 20, k = 1), and shows the
    # exact sides rounded once
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "1..20",
                           "--k", "1..3", "--p", "0.7", "--mode", "float",
                           "--format", "json")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert len(records) == 60
    for record in records:
        n, k = record["parameters"]["n"], record["parameters"]["k"]
        exact = verify_master(n, (1,) * k, Fraction(7, 10)).lhs.coeff
        assert record["status"] == "ok"
        assert record["payload"] == {"lhs": float(exact), "rhs": float(exact),
                                     "relDiff": 0.0, "passed": True}


def test_verify_master_float_cancellation_is_inconclusive(capsys):
    # an alternating sum in doubles puts this lhs near 1e27 against a true
    # 2.78e20, so a double engine could only call it inconclusive; the
    # exact engine decides it, and no record is inconclusive any more
    exact = float(verify_master(25, (1, 1, 1), Fraction(7, 10)).lhs.coeff)
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "25",
                           "--coeffs", "1,1,1", "--p", "0.7", "--mode", "float")
    assert code == 0
    assert "passed=true" in out and "passed=false" not in out
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "25",
                           "--coeffs", "1,1,1", "--p", "0.7", "--mode", "float",
                           "--format", "json")
    record = json.loads(out)
    assert code == 0
    assert record["status"] == "ok"
    assert record["payload"] == {"lhs": exact, "rhs": exact, "relDiff": 0.0,
                                 "passed": True}


def test_verify_master_float_large_case_is_quick_and_inconclusive(capsys):
    # C(88, 8) + C(47, 7) terms at n = 40, where the sums in doubles lose
    # every digit; the exact engine passes the whole run 25..40 quickly
    for coeffs in ("1,1,1", "1,1,1,1,1,1,1,1"):
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "master", "--n", "25..40",
                               "--coeffs", coeffs, "--p", "0.7",
                               "--mode", "float")
        assert time.perf_counter() - started < 2.0
        assert code == 0
        assert out.count("passed=true") == 16


def test_verify_master_float_overflow_is_a_usage_error(capsys):
    # 40..80 overflows at n=52: the records for smaller n are not printed;
    # 1e308,1e308 and 1e308 overflow at n=2; the sides at 1e-200 (about
    # 1e-800) are nonzero below the smallest normal double
    for n, coeffs in (("200", "1000"), ("40..80", "1000"),
                      ("2", "1e308,1e308"), ("2", "1e308"), ("2", "1e-200")):
        code, out, err = run_cli(capsys, "verify", "master", "--n", n,
                                 "--coeffs", coeffs, "--p", "1/2",
                                 "--mode", "float")
        assert code == 2, (n, coeffs)
        assert out == ""
        assert "double range" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--coeffs", "1,2", "--p", "inf"],
    ["--coeffs", "1,2", "--p", "nan"],
    ["--coeffs", "1,2", "--p", "Infinity"],
    ["--coeffs", "1,inf", "--p", "0.7"],
    ["--coeffs", "1,-inf", "--p", "0.7"],
])
def test_verify_master_float_non_finite_input_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "master", "--n", "2", *argv,
                             "--mode", "float")
    assert code == 2
    assert out == ""
    assert "expected a rational or a finite decimal" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-10"])
def test_verify_master_float_bad_tolerance_is_a_usage_error(capsys, tolerance):
    # float mode decides by exact equality, so --tolerance is gone: any
    # value, a bad one too, is an unknown argument
    with pytest.raises(SystemExit) as info:
        main(["verify", "master", "--n", "2", "--coeffs", "1,2", "--p", "0.7",
              "--mode", "float", f"--tolerance={tolerance}"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith(f"unrecognized arguments: --tolerance={tolerance}\n")


@pytest.mark.parametrize("text, value", [
    ("0.7", Fraction(7, 10)), (".5", Fraction(1, 2)),
    ("1e999", Fraction(10 ** 999)), ("7/10", Fraction(7, 10)),
    ("-1e-3", Fraction(-1, 1000)), ("2.", Fraction(2)),
])
def test_parse_decimal_reads_the_exact_value(text, value):
    assert _parse_decimal(text) == value


@pytest.mark.parametrize("text, message", [
    ("nan", "expected a rational or a finite decimal, got 'nan'"),
    ("inf", "expected a rational or a finite decimal, got 'inf'"),
    ("1e1000", "expected a rational or a finite decimal, got '1e1000'"),
    ("0x1p-3", "expected a rational or a finite decimal, got '0x1p-3'"),
    ("1_0", "expected a rational or a finite decimal, got '1_0'"),
    ("7" * 5000 + ".5", "Exceeds the limit (4300 digits) for integer "
                        "string conversion"),
    # refused on its syntax, before 10^1000000000 is built
    ("1e-1000000000",
     "expected a rational or a finite decimal, got '1e-1000000000'"),
], ids=["nan", "inf", "1e1000", "hex", "underscore", "5002-characters",
        "huge-exponent"])
def test_parse_decimal_refuses_with_one_line(capsys, text, message):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    started = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "verify", "master", "--n", "1",
                                 "--coeffs", "1", "--p", text,
                                 "--mode", "float")
    finally:
        sys.set_int_max_str_digits(limit)
    assert time.perf_counter() - started < 2.0
    assert (code, out) == (2, "")
    assert err.startswith(f"betawalk: error: {message}")
    assert err.count("\n") == 1 and len(err) < 300


def test_verify_equal_coeff(capsys):
    code, out, _ = run_cli(capsys, "verify", "equal-coeff", "--n", "1..2",
                           "--k", "1..2", "--p", "1/2")
    assert code == 0
    assert all("verified=true" in line for line in out.strip().splitlines())


def test_verify_equal_coeff_charges_b_p_p_by_its_size(capsys):
    # B(p, p)^12 at p = 1000 + 1/2 has about 72000 bits, (2p)!^12 about
    # 264000: the record fits the budget, and its sides, over 4300 digits
    # long, print only under a raised int-to-str limit
    argv = ["verify", "equal-coeff", "--n", "1", "--k", "12",
            "--p", "2001/2"]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out.count("\n")) == (0, 1)
        assert out.endswith(" verified=true\n")
        sys.set_int_max_str_digits(4300)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("betawalk: error: Exceeds the limit (4300 "
                              "digits) for integer string conversion")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, option", [
    (["simulate", "walk", "--dim", "1", "--n", "1"], "--trials"),
    (["compute", "path-count", "--dim", "2"], "--steps"),
    (["oracle", "--dim", "2", "--steps", "4"], "--budget"),
])
def test_an_integer_option_quotes_a_prefix_of_its_argument(capsys, argv,
                                                           option):
    # argparse prints the usage and one error line; a long argument changes
    # only the quoted text from what a short one prints
    errors = {}
    for text in ("x", "7" * 5000):
        with pytest.raises(SystemExit) as info:
            main([*argv, option, text])
        out, errors[text] = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert "Traceback" not in errors[text]
    assert errors["x"].endswith(f"argument {option}: invalid int value: "
                                "'x'\n")
    assert errors["7" * 5000] == errors["x"].replace(
        "'x'", f"'{'7' * 40}'... (5000 characters)")
    assert len(errors["7" * 5000].splitlines()[-1]) < 300


@pytest.mark.parametrize("argv, option", [
    (["series", "--n", "1", "--variant", "printed"], "--cutoff"),
])
def test_a_float_option_quotes_a_prefix_of_its_argument(capsys, argv,
                                                        option):
    errors = {}
    for text in ("x", "x" * 5000):
        with pytest.raises(SystemExit) as info:
            main([*argv, option, text])
        out, errors[text] = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
    assert errors["x"].endswith(f"argument {option}: invalid float value: "
                                "'x'\n")
    assert errors["x" * 5000] == errors["x"].replace(
        "'x'", f"'{'x' * 40}'... (5000 characters)")
    assert len(errors["x" * 5000]) < 400


def test_brief_shows_an_integer_in_full_up_to_40_digits():
    assert brief(10 ** 40 - 1) == "9" * 40
    assert brief(-(10 ** 40 - 1)) == "-" + "9" * 40
    assert brief(10 ** 40) == "10^40.0"
    assert brief(-7 * 10 ** 4999) == "-10^4999.8"


def test_verify_equal_coeff_needs_half_integer_p(capsys):
    code, out, err = run_cli(capsys, "verify", "equal-coeff", "--n", "1",
                             "--k", "1", "--p", "1/3")
    assert code == 2
    assert out == ""
    assert err == ("betawalk: error: verify equal-coeff prints the "
                   "unnormalized sides with their powers of pi and needs a "
                   "half-integer --p, got 1/3\n")


def test_verify_master_reports_a_broken_side(capsys, monkeypatch):
    # one side's moments perturbed: the record still prints, and exit is 1
    from betawalk import moments
    real = moments._even_moments

    def perturbed(p, count):
        seq = real(p, count)
        seq[1] += Fraction(1, 10 ** 6)
        return seq

    monkeypatch.setattr(moments, "_even_moments", perturbed)
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "3",
                           "--coeffs", "1,2", "--p", "1/3")
    assert code == 1
    assert out.startswith("master n=3 k=2 p=1/3 coeffs=1,2 lhs=")
    assert out.endswith(" verified=false\n")


def test_simulate_walk_deterministic_stdout(capsys):
    argv = ["simulate", "walk", "--dim", "2", "--n", "5",
            "--trials", "20000", "--seed", "7", "--threads", "2"]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "seed=7" in out_a and "workers=2" in out_a


@pytest.mark.parametrize("kind, dim", [("walk", 3), ("beta", 3)])
def test_simulate_stdout_does_not_depend_on_threads(capsys, kind, dim):
    # 40000 trials are three blocks; only the echoed worker count differs
    outputs = set()
    for threads in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, "simulate", kind, "--dim", str(dim),
                               "--n", "4", "--trials", "40000", "--seed",
                               "11", "--threads", threads)
        assert code == 0
        assert f" workers={threads} " in out
        outputs.add(out.replace(f" workers={threads} ", " "))
    assert len(outputs) == 1


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# runs whose standard error is 0 and whose estimate misses the reference
ZERO_STD_ERROR_RUNS = [
    ["simulate", "beta", "--dim", "2", "--n", "2", "--trials", "1",
     "--seed", "5", "--format", "json"],
    ["simulate", "walk", "--dim", "199", "--n", "5", "--trials", "1000",
     "--seed", "10", "--format", "json"],
]


def test_every_json_line_is_strict_json(capsys):
    # no NaN or Infinity, in the goldens or where the z-score is infinite
    lines = [line for path in sorted(GOLDEN.glob("*json*.out"))
             for line in path.read_text().splitlines()]
    assert len(lines) > 20
    for argv in ZERO_STD_ERROR_RUNS:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (3, "")
        record = json.loads(out, parse_constant=_refuse_constant)
        assert record["payload"]["stdError"] == 0.0
        assert record["payload"]["zScore"] is None
        assert record["status"] == "violated"
        lines.append(out)
    for line in lines:
        json.loads(line, parse_constant=_refuse_constant)


def test_simulate_beta(capsys):
    code, out, _ = run_cli(capsys, "simulate", "beta", "--dim", "1",
                           "--n", "1", "--trials", "20000", "--seed", "1")
    assert code == 0
    assert "exact=1/2" in out


def test_simulate_statistical_failure_exit_code(capsys):
    # two trials of a return probability 1/2: an estimate of 0 or 1 has
    # stdError 0 and |z| = inf (exit 3), an estimate of 1/2 has z = 0
    # (exit 0); which seeds give which depends on the stream, so scan
    argv = ("simulate", "walk", "--dim", "1", "--n", "1", "--trials", "2",
            "--threads", "1", "--seed")
    runs = {}
    for seed in range(64):
        code, out, _ = run_cli(capsys, *argv, str(seed))
        z = out.split("z=")[1].split()[0]
        runs.setdefault(z in ("inf", "-inf"), (code, z))
        if len(runs) == 2:
            break
    assert runs[True][0] == 3
    assert runs[False] == (0, "0.0")


@pytest.mark.parametrize("kind", ["walk", "beta"])
@pytest.mark.parametrize("z, code, status", [
    (3.999, 0, "ok"), (-3.999, 0, "ok"),
    (4.0, 3, "violated"), (-4.0, 3, "violated"),
])
def test_a_simulation_fails_at_the_z_limit(capsys, monkeypatch, kind, z,
                                           code, status):
    # |z| < Z_LIMIT passes and |z| >= 4 is a statistical failure, whatever
    # the sampler drew
    from betawalk import walks
    result = walks.SimulationResult(
        trials=100, hits=50, estimate=0.5, std_error=0.05,
        exact_reference=Fraction(1, 2), z_score=z, seed=1, workers=1)
    monkeypatch.setattr(walks, "simulate_walk", lambda *a, **k: result)
    monkeypatch.setattr(walks, "simulate_beta_moment",
                        lambda *a, **k: result)
    got, out, _ = run_cli(capsys, "simulate", kind, "--dim", "1", "--n",
                          "1", "--trials", "100", "--seed", "1",
                          "--format", "json")
    record = json.loads(out)
    assert (got, record["status"], record["command"],
            record["payload"]["zScore"]) == (code, status, f"simulate {kind}",
                                              z)


def test_simulate_usage_errors(capsys):
    code, out, err = run_cli(capsys, "simulate", "walk", "--dim", "1",
                             "--n", "1", "--trials", "0")
    assert code == 2
    assert out == ""


def test_catalog_list(capsys):
    code, out, err = run_cli(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("convolution [corrected]")
    assert "ERRATUM [convolution]" in err


def test_catalog_verify_single(capsys):
    code, out, _ = run_cli(capsys, "catalog", "verify", "vandermonde")
    assert code == 0
    assert len(out.strip().splitlines()) == 100


def test_catalog_verify_shows_counterexample(capsys):
    code, out, err = run_cli(capsys, "catalog", "verify", "k-dim-remark")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25  # 24 grid points + printed counterexample
    assert "variant=printed" in lines[-1]
    assert "lhs=17 rhs=2" in lines[-1]
    assert "verified=false" in lines[-1]
    assert "ERRATUM [k-dim-remark]" in err


def test_catalog_status_follows_record_role(capsys, monkeypatch):
    # duplication's run reports carry variant=printed; a failing one is
    # still a violation, only an entry's counterexample may fail as "ok"
    real = catalog.verify_duplication

    def broken(n):
        report = real(n)
        return report._replace(verified=False) if n == 3 else report

    monkeypatch.setattr(catalog, "verify_duplication", broken)
    code, out, _ = run_cli(capsys, "catalog", "verify", "duplication",
                           "--format", "json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records[3]["parameters"] == {"variant": "printed", "n": "3"}
    assert [r["status"] for r in records].count("violated") == 1
    assert records[3]["status"] == "violated"

    code, out, _ = run_cli(capsys, "catalog", "verify", "k-dim-remark",
                           "--format", "json")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["status"] == "ok"


def test_catalog_verify_unknown(capsys):
    code, out, err = run_cli(capsys, "catalog", "verify", "no-such")
    assert code == 2
    assert out == ""
    assert "unknown catalog entry" in err


def test_series_printed_diverges(capsys):
    code, out, _ = run_cli(capsys, "series", "--n", "0",
                           "--variant", "printed")
    assert code == 0
    assert "diverged=true" in out
    assert "converged=false" in out


def test_json_format_one_object_per_line(capsys):
    cases = [
        ["verify", "master", "--n", "1..2", "--coeffs", "1/2,1/2",
         "--p", "1/2", "--format", "json"],
        ["compute", "return-prob", "--dim", "2", "--steps", "4",
         "--format", "json"],
        ["compute", "moment", "--n", "1", "--p", "1/2", "--format", "json"],
        ["oracle", "--dim", "1", "--steps", "2", "--format", "json"],
        ["simulate", "walk", "--dim", "1", "--n", "1", "--trials", "1000",
         "--seed", "3", "--threads", "1", "--format", "json"],
        ["simulate", "beta", "--dim", "2", "--n", "1", "--trials", "1000",
         "--seed", "3", "--threads", "1", "--format", "json"],
        ["catalog", "list", "--format", "json"],
        ["catalog", "verify", "duplication", "--format", "json"],
        ["series", "--n", "0", "--variant", "over-k-factorial-squared",
         "--format", "json"],
        ["verify", "equal-coeff", "--n", "1", "--k", "2", "--p", "1",
         "--format", "json"],
    ]
    for argv in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert set(record) == {"command", "parameters", "payload",
                                   "status"}
            assert record["status"] in ("ok", "violated")


def test_json_identity_payload_shape(capsys):
    _, out, _ = run_cli(capsys, "verify", "master", "--n", "2", "--coeffs",
                        "1/3,1/3,1/3", "--p", "1/2", "--format", "json")
    record = json.loads(out.strip())
    payload = record["payload"]
    assert payload["lhs"] == {"coeff": "5/72", "sqrtPiPow": 0}
    assert payload["verified"] is True
    assert record["parameters"]["threads"] >= 1
    assert "elapsed" not in payload  # timing goes to stderr, stdout is stable


def test_csv_format_headers(capsys):
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "1..2",
                           "--coeffs", "1", "--p", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,p,coeffs,mode,lhs,rhs,verified"
    assert len(lines) == 3

    code, out, _ = run_cli(capsys, "simulate", "beta", "--dim", "1", "--n",
                           "1", "--trials", "100", "--seed", "1",
                           "--threads", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,dim,n,trials,seed,workers")


def test_thread_count_defaults_to_one_worker(capsys, monkeypatch):
    # the environment and the CPU count play no part
    monkeypatch.setenv("BETAWALK_THREADS", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code, out, _ = run_cli(capsys, "simulate", "walk", "--dim", "1", "--n",
                           "1", "--trials", "100", "--seed", "2")
    assert code == 0
    assert " workers=1 " in out
    code, out, _ = run_cli(capsys, "verify", "master", "--n", "1", "--coeffs",
                           "1", "--p", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["parameters"]["threads"] == 1


def test_thread_counts_above_the_worker_maximum(capsys):
    # an explicit count above the maximum is refused on every command
    # before any work, so no pool is ever started and no long count echoed
    commands = [
        ["simulate", "walk", "--dim", "1", "--n", "1", "--trials", "100"],
        ["verify", "master", "--n", "1", "--coeffs", "1", "--p", "1/2",
         "--format", "json"],
        ["verify", "equal-coeff", "--n", "1", "--k", "1", "--p", "1/2"],
    ]
    for argv in commands:
        for threads in (str(MAX_WORKERS + 1), "5000", "1" + "0" * 4000):
            code, out, err = run_cli(capsys, *argv, "--threads", threads)
            assert (code, out, err) == (
                2, "",
                f"betawalk: error: workers must be at most {MAX_WORKERS}\n")
        code, out, _ = run_cli(capsys, *argv, "--threads", str(MAX_WORKERS))
        assert code == 0 and out


def test_usage_error_goes_to_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "master", "--n", "1", "--coeffs", "1",
              "--mode", "bogus", "--p", "1"])
    assert info.value.code == 2


def test_threads_below_one_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BETAWALK_THREADS", "1")
    commands = [
        ["verify", "master", "--n", "1", "--coeffs", "1", "--p", "1"],
        ["verify", "equal-coeff", "--n", "1", "--k", "1", "--p", "1"],
        ["simulate", "walk", "--dim", "1", "--n", "1", "--trials", "100"],
    ]
    for argv in commands:
        for threads in ("0", "-1"):
            code, out, err = run_cli(capsys, *argv, "--threads", threads)
            assert code == 2, (argv, threads)
            assert out == ""
            assert "--threads" in err


def test_internal_fault_exits_70_with_one_line(capsys, monkeypatch):
    from betawalk import walks

    # a ValueError the library did not raise on purpose is not a usage error
    def fault(dim, half_steps):
        raise ValueError("math domain error\nsecond line")

    monkeypatch.setattr(walks, "path_count", fault)
    code, out, err = run_cli(capsys, "compute", "path-count",
                             "--dim", "2", "--steps", "4")
    assert code == 70
    assert out == ""
    assert err == ("betawalk: internal error: ValueError: math domain error "
                   "second line\n")

    monkeypatch.setattr(walks, "return_probability",
                        lambda dim, half_steps: 1 // 0)
    code, out, err = run_cli(capsys, "compute", "return-prob",
                             "--dim", "2", "--steps", "4")
    assert code == 70
    assert out == ""
    assert err == ("betawalk: internal error: ZeroDivisionError: "
                   "integer division or modulo by zero\n")


def test_rejected_inputs_keep_exit_2_and_their_message(capsys):
    # each of these passes the CLI's own syntax checks and is rejected with
    # an InputError; from the path count to the series, each holds a
    # number over the int-to-str limit, printed or parsed
    long_int = "7" * 5000
    huge = "1" + "0" * 4000  # 10^4000, which parses
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv, message in (
            (["oracle", "--dim", "2", "--steps", "4", "--budget", "255"],
             "enumeration at dim=2, half_steps=2 needs about 256 paths "
             "(budget is 255)"),
            (["verify", "master", "--n", "200", "--coeffs", "1000",
              "--p", "1/2", "--mode", "float"],
             "float evaluation at n=200 exceeds the double range "
             "(overflow)"),
            (["verify", "master", "--n", "60", "--coeffs", "1/1000",
              "--p", "1/2", "--mode", "float"],
             "float evaluation at n=60 exceeds the double range "
             "(underflow)"),
            (["compute", "path-count", "--dim", "1", "--steps", "15000"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            (["verify", "master", "--n", "1", "--coeffs", long_int,
              "--p", "1/2"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            (["compute", "moment", "--n", "1", "--p", f"{long_int}/3"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            (["verify", "master", "--n", "1", "--coeffs", long_int,
              "--p", "0.5", "--mode", "float"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            (["verify", "master", "--n", "1", "--coeffs", "1",
              "--p", f"{long_int}/3", "--mode", "float"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            # the exact terms of a series that does not stop early
            (["series", "--n", "5000", "--variant", "over-k-factorial",
              "--cutoff", "0"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            *((["series", "--n", "0", "--variant", "over-k-factorial-squared",
                f"--cutoff={cutoff}"], "cutoff must be finite and >= 0")
              for cutoff in ("-1", "nan", "inf", "-inf")),
            # far over the path budget: refused before (2k)^2n is formed
            (["oracle", "--dim", "2", "--steps", "200000"],
             "enumeration at dim=2, half_steps=100000 needs about "
             "2^400000 paths (budget is 10000000)"),
            (["oracle", "--dim", "65", "--steps", "1000"],
             "enumeration at dim=65, half_steps=500 needs about 2^7022 "
             "paths (budget is 10000000)"),
            # a parse error quotes a prefix of the argument
            (["verify", "master", "--n", "1", "--coeffs", "1",
              "--p", f"{long_int}.5", "--mode", "float"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            (["verify", "master", "--n", "1", "--coeffs", "1",
              "--p", f"{long_int}.5"],
             f"expected an integer or a/b rational, got '{long_int[:40]}'"
             "... (5002 characters)"),
            (["verify", "master", "--n", f"1..{long_int}", "--coeffs", "1",
              "--p", "1/2"],
             "Exceeds the limit (4300 digits) for integer string "
             "conversion"),
            (["catalog", "verify", long_int],
             f"unknown catalog entry '{long_int[:40]}'... "
             "(5000 characters)"),
            # a number past 40 digits, the caller's or an estimate, is
            # shown as 10^x
            (["compute", "path-count", "--dim", "2", "--steps", "2" + huge[1:]],
             "path count at dim=2, half_steps=10^4000.0 needs about "
             "10^11998.8 limb operations (budget is 50000000)"),
            (["verify", "master", "--n", huge, "--coeffs", "1", "--p", "1/2"],
             "master record at n=10^4000.0, k=1 needs about 10^12002.7 limb "
             "operations (budget is 16000000)"),
            (["verify", "equal-coeff", "--n", "1", "--k", huge, "--p", "1/2"],
             "equal-coeff record at n=1, k=10^4000.0 needs about 10^7996.4 "
             "limb operations (budget is 16000000)"),
            (["simulate", "walk", "--dim", "1", "--n", "1", "--trials", huge],
             "simulation of 10^4000.0 trials at dim=1 needs about 10^4000.0 "
             "draws (budget is 250000000)"),
            (["simulate", "beta", "--dim", huge, "--n", "1", "--trials", "10"],
             "simulation of 10 trials at dim=10^4000.0 needs about 10^4001.0 "
             "draws (budget is 250000000)"),
            (["verify", "master", "--n", "1", "--k", huge, "--p", "1/2"],
             "master record at n=1, k=10^4000.0 needs about 10^4002.4 limb "
             "operations (budget is 16000000)"),
            (["verify", "master", "--n", huge, "--coeffs", "1", "--p", "0.5",
              "--mode", "float"],
             "master record at n=10^4000.0, k=1 needs about 10^12002.7 limb "
             "operations (budget is 16000000)"),
            # a walk over 64 steps draws numpy's binomial, charged as 10
            (["simulate", "walk", "--dim", "1", "--n", "33", "--trials",
              "25000001"],
             "simulation of 25000001 trials at dim=1 needs about 250000010 "
             "draws (budget is 250000000)"),
            # a seed is one 64-bit word: no two seeds share a stream
            *((["simulate", kind, "--dim", "2", "--n", "2", "--trials",
                "1000", "--seed", seed], "seed must lie in "
               f"0..18446744073709551615, got {shown}")
              for kind in ("walk", "beta")
              for seed, shown in (("-1", "-1"),
                                  ("18446744073709551616",
                                   "18446744073709551616"),
                                  ("9" * 300, "10^300.0"))),
            (["compute", "moment", "--n", huge, "--p", "1/3"],
             "even moment at n=10^4000.0 needs about 10^4002.0 limb "
             "operations (budget is 16000000)"),
            (["compute", "return-prob", "--dim", huge, "--steps", "2"],
             "path count at dim=10^4000.0, half_steps=1 needs about "
             "10^4003.1 limb operations (budget is 50000000)"),
            (["compute", "path-count", "--dim", "2", "--steps", huge + "1",
              "--allow-odd"],
             "path total at dim=2, steps=10^4001.0 needs about 10^7999.0 "
             "limb operations (budget is 50000000)"),
            (["compute", "path-count", "--dim", "2", "--steps", huge + "1"],
             "steps=10^4001.0 is odd (parity forces probability 0); pass "
             "--allow-odd to print the exact 0"),
            (["oracle", "--dim", huge, "--steps", "2"],
             "enumeration at dim=10^4000.0, half_steps=1 needs about "
             "2^26577 paths (budget is 10000000)"),
            (["oracle", "--dim", "2", "--steps", "4", "--budget", "-" + huge],
             "enumeration at dim=2, half_steps=2 needs about 256 paths "
             "(budget is -10^4000.0)"),
            (["oracle", "--dim", "2", "--steps", huge],
             "enumeration at dim=2, half_steps=10^3999.7 needs about "
             "2^10^4000.3 paths (budget is 10000000)"),
            (["verify", "equal-coeff", "--n", "1", "--k", "1",
              "--p", "1/3" + huge[1:]],
             "verify equal-coeff prints the unnormalized sides with their "
             "powers of pi and needs a half-integer --p, got 1/10^4000.5"),
            # refused before the exact target C(2n, n)^2 / 16^n is formed
            (["series", "--n", "1" + "0" * 25, "--variant", "printed",
              "--max-terms", "3"], "n must be at most 100000"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"betawalk: error: {message}"), argv
            assert err.count("\n") == 1 and len(err) < 300, argv
            assert "Traceback" not in err, argv
        # a standard error of 0 is a statistical failure, not a refusal
        for argv in ZERO_STD_ERROR_RUNS:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (3, ""), argv
            assert out.count("\n") == 1 and len(out) < 400, argv
    finally:
        sys.set_int_max_str_digits(limit)


# id prefix -> argv; the path count keeps the ids it had as the only case
TOO_LONG_TO_PRINT = {
    # the 4516-digit total is rendered in the handler
    "": ["compute", "path-count", "--dim", "1", "--steps", "15001",
         "--allow-odd"],
    # an exact side, or B(p, p), rendered by the emitter; at n=36 the master
    # sides have 4271 digits, at n=37 too many
    "master-": ["verify", "master", "--n", "36..37", "--coeffs",
                "1/123456789012345678901234567890123456789012345678901234567890"
                ",1", "--p", "1/2"],
    "equal-coeff-": ["verify", "equal-coeff", "--n", "1", "--k", "1",
                     "--p", "10001/2"],
    # an exact series term, rendered in the library
    "series-": ["series", "--n", "0", "--variant", "over-k-factorial-squared",
                "--cutoff", "0"],
}


@pytest.mark.parametrize("argv, fmt", [
    pytest.param(argv, fmt, id=name + fmt)
    for name, argv in TOO_LONG_TO_PRINT.items()
    for fmt in ("plain", "json", "csv")])
def test_odd_path_count_too_long_to_print_exits_2(capsys, argv, fmt):
    # an exact value too long to print is a usage error in every format,
    # and no record, or CSV header, reaches stdout before it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith("betawalk: error: Exceeds the limit (4300 digits) "
                          "for integer string conversion")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_odd_path_count_prints_every_format(capsys):
    code, out, _ = run_cli(capsys, "compute", "path-count", "--dim", "2",
                           "--steps", "3", "--allow-odd", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"] == {
        "count": "0", "totalPaths": "64", "probability": "0/1",
        "decimal": "0"}
    code, out, _ = run_cli(capsys, "compute", "path-count", "--dim", "2",
                           "--steps", "3", "--allow-odd", "--format", "csv")
    assert out.splitlines()[1] == "2,3,0,64,0/1,0"


@pytest.mark.parametrize("argv, message", [
    (["simulate", "walk", "--dim", "1", "--n", "10000000000000000000",
      "--trials", "10", "--threads", "1"],
     "the walk length 2n must be at most 9223372036854775807"),
    (["compute", "return-prob", "--dim", "2", "--steps", "4000"],
     "path count at dim=2, half_steps=2000 needs about"),
    (["compute", "path-count", "--dim", "1", "--steps", "4000000"],
     "path count at dim=1, half_steps=2000000 needs about"),
    (["simulate", "beta", "--dim", "2", "--n", "2000", "--trials", "10",
      "--threads", "1"],
     "path count at dim=2, half_steps=2000 needs about"),
    (["compute", "path-count", "--dim", "1", "--steps", "100000000001",
      "--allow-odd"],
     "path total at dim=1, steps=100000000001 needs about"),
    (["verify", "master", "--n", "1000", "--coeffs", "1,2", "--p", "1/2",
      "--threads", "1"],
     "master record at n=1000, k=2 needs about"),
    (["verify", "equal-coeff", "--n", "1000", "--k", "2", "--p", "1/2"],
     "equal-coeff record at n=1000, k=2 needs about"),
    (["verify", "equal-coeff", "--n", "1", "--k", "100000000", "--p", "3/2"],
     "equal-coeff record at n=1, k=100000000 needs about"),
    (["compute", "moment", "--n", "10000000", "--p", "7/5"],
     "even moment at n=10000000 needs about"),
    (["simulate", "walk", "--dim", "1", "--n", "1", "--trials",
      "1000000000000", "--threads", "1"],
     "simulation of 1000000000000 trials at dim=1 needs about"),
    (["simulate", "beta", "--dim", "1", "--n", "1", "--trials", "10",
      "--threads", "5000"],
     "workers must be at most 1024"),
    (["verify", "master", "--n", "1", "--k", "100000000", "--p", "0.5",
      "--mode", "float"],
     "master record at n=1, k=100000000 needs about"),
    (["series", "--n", "0", "--variant", "printed", "--max-terms", "1000001"],
     "max_terms must be at most 1000000"),
    (["verify", "equal-coeff", "--n", "1", "--k", "1", "--p", "2000001/2"],
     "equal-coeff record at n=1, k=1 needs about"),
    (["series", "--n", "100001", "--variant", "printed", "--max-terms", "3"],
     "n must be at most 100000"),
])
def test_inputs_beyond_a_library_bound_exit_2_at_once(capsys, argv, message):
    # each is refused before any work starts
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.startswith(f"betawalk: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("shape, refusal", [
    (["--p", "1/2"], "master record at n=1, k=100000000 needs about"),
    (["--mode", "float", "--p", "0.5"],
     "master record at n=1, k=100000000 needs about"),
], ids=["exact", "float"])
def test_huge_k_is_refused_before_its_weights_exist(shape, refusal):
    # the child alone runs under a 256 MiB address-space limit: the 10^8
    # unit weights would need 800 MB, so a handler that built them before
    # asking the budget would fail at once with an internal error
    limit = 256 << 20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "betawalk.cli", "verify", "master", "--n", "1",
         "--k", "100000000", *shape],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"betawalk: error: {refusal}")
    assert proc.stderr.count("\n") == 1


def test_cli_checks_keep_exit_2_and_their_message(capsys):
    # the CLI only parses these; the library refuses each range, sign or
    # shape with an InputError before any work starts
    master = ["verify", "master", "--n", "2"]
    for argv, message in (
        (master + ["--coeffs", "0", "--p", "1/2"],
         "coefficients must be positive"),
        (master + ["--coeffs", "1,0", "--p", "0.5", "--mode", "float"],
         "coefficients must be positive"),
        (master + ["--coeffs", "1", "--p", "0"], "p must be > 0"),
        (master + ["--coeffs", "1", "--p", "0", "--mode", "float"],
         "p must be > 0"),
        (master + ["--k", "0", "--p", "1/2"],
         "at least one coefficient is required"),
        (master + ["--k", "0..2", "--p", "0.5", "--mode", "float"],
         "at least one coefficient is required"),
        (["verify", "master", "--n", "0", "--k", "1", "--p", "1/2"],
         "n must be >= 1"),
        (["verify", "master", "--n", "0..1", "--coeffs", "1", "--p", "0.5",
          "--mode", "float"], "n must be >= 1"),
        # a negative value given as a separate argument is a value too
        (master + ["--coeffs", "1", "--p", "-1/2"], "p must be > 0"),
        (master + ["--coeffs", "-1/2", "--p", "1/2"],
         "coefficients must be positive"),
        (["verify", "equal-coeff", "--n", "1", "--k", "1", "--p", "-1/2"],
         "p must be > 0"),
        (["compute", "moment", "--n", "2", "--p", "-1/2"], "p must be > 0"),
        (["verify", "equal-coeff", "--n", "1", "--k", "1", "--p", "0"],
         "p must be > 0"),
        (["verify", "equal-coeff", "--n", "1", "--k", "1", "--p", "5/4"],
         "verify equal-coeff prints the unnormalized sides with their "
         "powers of pi and needs a half-integer --p, got 5/4"),
        (["verify", "equal-coeff", "--n", "0", "--k", "1", "--p", "1/2"],
         "n and k must be >= 1"),
        (["verify", "equal-coeff", "--n", "1", "--k", "0", "--p", "1/2"],
         "n and k must be >= 1"),
        (["compute", "return-prob", "--dim", "2", "--steps", "0"],
         "dim and half_steps must be >= 1"),
        (["compute", "path-count", "--dim", "0", "--steps", "4"],
         "dim and half_steps must be >= 1"),
        (["compute", "path-count", "--dim", "0", "--steps", "3",
          "--allow-odd"], "dim must be >= 1"),
        (["compute", "moment", "--n", "0", "--p", "1/2"], "n must be >= 1"),
        (["compute", "moment", "--n", "2", "--p", "0"], "p must be > 0"),
        (["oracle", "--dim", "0", "--steps", "4"],
         "dim and half_steps must be >= 1"),
        (["simulate", "walk", "--dim", "1", "--n", "1", "--trials", "0"],
         "trials must be >= 1"),
        (["simulate", "walk", "--dim", "0", "--n", "1", "--trials", "10"],
         "dimension must be >= 1"),
        (["simulate", "walk", "--dim", "1", "--n", "0", "--trials", "10"],
         "half_steps must be >= 1"),
        (["simulate", "beta", "--dim", "0", "--n", "1", "--trials", "10"],
         "dim and half_steps must be >= 1"),
        (["simulate", "beta", "--dim", "1", "--n", "1", "--trials", "0"],
         "trials must be >= 1"),
        (["series", "--n", "-1", "--variant", "printed"], "n must be >= 0"),
        (["series", "--n", "0", "--variant", "printed", "--max-terms", "0"],
         "max_terms must be >= 1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"betawalk: error: {message}\n"), \
            argv


@pytest.mark.parametrize("argv, option, value", [
    (["verify", "master", "--n", "1", "--coeffs", "1"], "--p", "-1/2"),
    (["verify", "equal-coeff", "--n", "1", "--k", "1"], "--p", "-1/2"),
    (["compute", "moment", "--n", "1"], "--p", "-1/2"),
    (["verify", "master", "--n", "1", "--p", "1/2"], "--coeffs", "-1/2"),
    (["verify", "master", "--n", "1", "--coeffs", "1", "--mode", "float"],
     "--p", "-1e-3"),
    (["series", "--n", "1", "--variant", "printed"], "--cutoff", "-1e-5"),
])
def test_negative_value_as_a_separate_argument_is_its_equals_form(
        capsys, argv, option, value):
    apart = run_cli(capsys, *argv, option, value)
    joined = run_cli(capsys, *argv, f"{option}={value}")
    assert apart == joined


def test_closed_stdout_pipe_ends_without_traceback(tmp_path):
    # the JSON catalog run writes more than a pipe buffer holds, so the
    # process is still writing when the reader goes away
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    with open(tmp_path / "stderr", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "betawalk.cli", "catalog", "verify", "all",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=stderr, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        proc.wait(timeout=60)
    assert first.startswith(b"{")
    assert b"Traceback" not in (tmp_path / "stderr").read_bytes()
    assert proc.returncode == -signal.SIGPIPE


def run_module(argv, **kwargs):
    """``python -m betawalk.cli`` on argv as a process, bytes out."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "betawalk.cli", *argv],
                          env=env, timeout=60, **kwargs)


README_MASTER = ["verify", "master", "--n", "1..6", "--coeffs",
                 "1/3,1/3,1/3", "--p", "1/2"]


@pytest.mark.parametrize("argv, code", [
    *((README_MASTER + ["--format", fmt], 0)
      for fmt in ("plain", "json", "csv")),
    (["compute", "return-prob", "--dim", "2", "--steps", "5"], 2),
    (["simulate", "walk", "--dim", "1", "--n", "1", "--trials", "1",
      "--seed", "1"], 3),
], ids=["plain", "json", "csv", "usage", "statistical"])
def test_the_process_exits_as_main_returns(capsys, argv, code):
    # the process ends at os._exit once flushed: same bytes, same code
    expected = run_cli(capsys, *argv)
    proc = run_module(argv, capture_output=True)
    timing = re.compile(r"\d+\.\d{3}s")  # a verify note's elapsed time
    assert expected[0] == code
    assert (proc.returncode, proc.stdout,
            timing.sub("", proc.stderr.decode())) == (
        code, expected[1].encode(), timing.sub("", expected[2]))


def test_a_large_output_redirected_to_a_file_arrives_whole(capsys,
                                                           tmp_path):
    argv = ["catalog", "verify", "all", "--format", "json"]
    code, expected, _ = run_cli(capsys, *argv)
    assert (code, len(expected) > 150_000) == (0, True)
    with open(tmp_path / "out", "wb") as out:
        proc = run_module(argv, stdout=out, stderr=subprocess.PIPE)
    assert (proc.returncode, b"Traceback" in proc.stderr) == (0, False)
    assert (tmp_path / "out").read_bytes() == expected.encode()


def test_a_failed_flush_exits_70_with_one_line(capsys, monkeypatch):
    class Full(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    def exit_now(code):
        raise SystemExit(f"os._exit({code})")

    monkeypatch.setattr(signal, "signal", lambda *args: None)
    monkeypatch.setattr(gc, "disable", lambda: None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "argv", ["betawalk", "compute", "return-prob",
                                      "--dim", "2", "--steps", "4"])
    monkeypatch.setattr(sys, "stdout", Full())
    monkeypatch.setattr(os, "_exit", exit_now)
    with pytest.raises(SystemExit) as info:
        cli.entry_point()
    assert info.value.code == "os._exit(70)"
    assert capsys.readouterr().err == (
        "betawalk: internal error: OSError: [Errno 28] No space left on "
        "device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["compute", "return-prob", "--dim", "2", "--steps", "4"],
    ["catalog", "verify", "all", "--format", "json"],
], ids=["small", "large"])
def test_a_write_to_a_full_disk_exits_70_with_one_line(monkeypatch, argv,
                                                      unbuffered):
    # a small output fails at the flush when buffered, a large one at the
    # write; unbuffered, every output fails at the write
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    with open("/dev/full", "wb") as full:
        proc = run_module(argv, stdout=full, stderr=subprocess.PIPE)
    # besides the catalog's erratum banners, stderr holds one line
    lines = [line for line in proc.stderr.splitlines()
             if not line.startswith(b"ERRATUM ")]
    assert (proc.returncode, lines) == (70, [
        b"betawalk: internal error: OSError: [Errno 28] No space left on "
        b"device"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, code", [
    (["verify", "master", "--n", "1..3", "--coeffs", "1,2", "--p", "1/2"], 0),
    (["compute", "return-prob", "--dim", "2", "--steps", "5"], 2),
    (["catalog", "list"], 0),
    (["catalog", "verify", "all"], 0),
    (["verify", "bogus"], 2),
], ids=["note", "error", "banners", "banners-and-note", "argparse"])
def test_a_failed_stderr_write_keeps_the_exit_code(monkeypatch, argv, code,
                                                   unbuffered):
    # stdout carries the data, and a diagnostic line that cannot be
    # written changes nothing: the code stays the one the run decided
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    with open("/dev/full", "wb") as full:
        proc = run_module(argv, stdout=subprocess.PIPE, stderr=full)
    assert (proc.returncode, proc.stdout == b"") == (code, code == 2)
