"""The benchmark's checker reads every pinned ``verify master`` output and
the pinned catalog outputs, and its tracer still runs the CLI.

The benchmark judges the same commands the goldens pin, with its own
parser and references (``bench/check.py``).  A golden it could not read
would fail only in a benchmark run; here it fails with the tests.  So
would a CLI whose parser or emitter the traced run could no longer wrap
(``bench/spans.py``).  The benchmark's modules are imported read-only, as
``bench/test_check.py`` imports them.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN, case_name

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from check import expected_exit, judge_records, parse_records  # noqa: E402
from run import load_program  # noqa: E402
from spans import Tracer, run_in_process  # noqa: E402
from workloads import catalog, master, master_float, master_sweep  # noqa: E402


def bench_command(command: str):
    """The benchmark's ``Command`` for one ``verify master`` command line."""
    tokens = command.split()
    opts = dict(zip(tokens[2::2], tokens[3::2]))
    lo, _, hi = opts["--n"].partition("..")
    lo, hi = int(lo), int(hi or lo)
    threads = int(opts.get("--threads", 1))
    fmt = opts.get("--format", "plain")
    p = opts["--p"]
    if "--k" in opts:
        k_lo, _, k_hi = opts["--k"].partition("..")
        assert lo == 1 and k_lo == "1", command  # the sweep's only shape
        return master_sweep(hi, int(k_hi or k_lo), Fraction(p), threads, fmt)
    coeffs = opts["--coeffs"].split(",")
    if opts.get("--mode") == "float":
        return master_float(lo, hi, coeffs, p, threads, fmt)
    return master(lo, hi, list(map(Fraction, coeffs)), Fraction(p), threads,
                  fmt)


MASTER_CASES = [c for c in CASES if c.startswith("verify master ")]


def test_every_master_format_and_mode_is_pinned():
    formats = {(" --mode float" in c, bench_command(c).fmt)
               for c in MASTER_CASES}
    assert formats == {(mode, fmt) for mode in (False, True)
                       for fmt in ("plain", "json", "csv")}


@pytest.mark.parametrize("command", MASTER_CASES, ids=case_name)
def test_the_benchmark_checker_accepts_the_master_golden(command):
    cmd = bench_command(command)
    name = case_name(command)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    records = parse_records(cmd.kind, cmd.fmt,
                            (GOLDEN / f"{name}.out").read_text())
    assert records
    assert judge_records(cmd, records) == []
    assert expected_exit(cmd, records) == (0,) == (codes[name],)


CATALOG_CASES = [c for c in CASES
                 if c.startswith(("catalog list ", "catalog verify all "))]


@pytest.mark.parametrize("command", CATALOG_CASES, ids=case_name)
def test_the_benchmark_checker_accepts_the_catalog_golden(command):
    # a printed record of an entry without a counterexample is judged
    # against the identity's value, like a corrected one
    words = command.split()
    cmd = catalog(words[1], "all" if words[1] == "verify" else None, words[-1])
    name = case_name(command)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    records = parse_records(cmd.kind, cmd.fmt,
                            (GOLDEN / f"{name}.out").read_text())
    assert records
    assert judge_records(cmd, records) == []
    assert expected_exit(cmd, records) == (0,) == (codes[name],)


def test_the_traced_benchmark_wraps_and_runs_the_cli():
    # the tracer calls build_parser() with no argument and wraps
    # Emitter.emit; a changed call shape fails every traced command
    mods = load_program()
    tracer = Tracer(mods)
    assert [name for name in tracer.missing if name.startswith("cli.")] == []
    first = tracer.start_pass()
    tracer.install()
    try:
        code, _, err = run_in_process(mods["cli"], MASTER_CASES[0].split())
    finally:
        tracer.uninstall()
    assert (code, "Traceback" in err) == (0, False)
    assert {"cli.parse", "cli.emit"} <= {span[0]
                                         for span in tracer.spans[first:]}


def test_the_traced_benchmark_counts_the_sampler_trials():
    # the tracer binds each sampler's arguments by name: a changed
    # signature fails the traced run or leaves walks.mc_trials at 0
    mods = load_program()
    tracer = Tracer(mods)
    first = tracer.start_pass()
    tracer.install()
    try:
        code, _, err = run_in_process(mods["cli"], [
            "simulate", "beta", "--dim", "1", "--n", "1", "--trials", "1000",
            "--seed", "1"])
    finally:
        tracer.uninstall()
    assert (code, "Traceback" in err) == (0, False)
    assert tracer.counters["walks.mc_trials"] == 1000
    assert "walks.simulate_beta" in {span[0] for span in tracer.spans[first:]}


def test_the_traced_benchmark_counts_the_catalog_reports():
    # the tracer wraps each catalog verifier under its module-level name:
    # a registry that stopped calling through those names reads 0 here
    mods = load_program()
    tracer = Tracer(mods)
    tracer.start_pass()
    tracer.install()
    try:
        code, _, err = run_in_process(mods["cli"],
                                      ["catalog", "verify", "all"])
    finally:
        tracer.uninstall()
    assert (code, "Traceback" in err) == (0, False)
    assert tracer.counters["catalog.reports"] == 405
