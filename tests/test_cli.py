import dataclasses
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from betawalk import catalog
from betawalk.cli import main


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


def test_compute_moment_rejects_non_half_integer(capsys):
    code, out, err = run_cli(capsys, "compute", "moment",
                             "--n", "2", "--p", "1/3")
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
    assert "passed=true" in out


def test_verify_master_float_overflow_is_a_usage_error(capsys):
    # 40..80 overflows at n=45: the records for smaller n are not printed
    for n in ("200", "40..80"):
        code, out, err = run_cli(capsys, "verify", "master", "--n", n,
                                 "--coeffs", "1000", "--p", "1/2",
                                 "--mode", "float")
        assert code == 2, n
        assert out == ""
        assert "double range" in err
        assert err.count("\n") == 1


def test_verify_equal_coeff(capsys):
    code, out, _ = run_cli(capsys, "verify", "equal-coeff", "--n", "1..2",
                           "--k", "1..2", "--p", "1/2")
    assert code == 0
    assert all("verified=true" in line for line in out.strip().splitlines())


def test_simulate_walk_deterministic_stdout(capsys):
    argv = ["simulate", "walk", "--dim", "2", "--n", "5",
            "--trials", "20000", "--seed", "7", "--threads", "2"]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "seed=7" in out_a and "workers=2" in out_a


def test_simulate_beta(capsys):
    code, out, _ = run_cli(capsys, "simulate", "beta", "--dim", "1",
                           "--n", "1", "--trials", "20000", "--seed", "1")
    assert code == 0
    assert "exact=1/2" in out


def test_simulate_statistical_failure_exit_code(capsys):
    # two trials, both returning: estimate 1, stdError 0, |z| = inf
    code, out, _ = run_cli(capsys, "simulate", "walk", "--dim", "1",
                           "--n", "1", "--trials", "2", "--seed", "0",
                           "--threads", "1")
    assert code == 3
    assert "z=inf" in out


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
        return dataclasses.replace(report, verified=False) if n == 3 else report

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


def test_env_var_overrides_threads(capsys, monkeypatch):
    monkeypatch.setenv("BETAWALK_THREADS", "3")
    _, out, _ = run_cli(capsys, "simulate", "walk", "--dim", "1", "--n", "1",
                        "--trials", "100", "--seed", "2")
    assert "workers=3" in out
    monkeypatch.setenv("BETAWALK_THREADS", "junk")
    code, out, err = run_cli(capsys, "simulate", "walk", "--dim", "1",
                             "--n", "1", "--trials", "100", "--seed", "2")
    assert code == 2


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
