"""Golden CLI output: stdout byte for byte and the exit code.

Every README command plus ``catalog verify all`` runs in each output
format, together with a few larger exact runs and usage errors.  The
parser's own output is pinned too: ``--help`` at every level of the
command tree, and argparse's message for a missing or unknown word or
option.  The data under ``tests/golden/`` pins the current output; a
change that alters it must be declared.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from betawalk.cli import Z_LIMIT, main
from betawalk.walks import return_probability

GOLDEN = Path(__file__).parent / "golden"

README_COMMANDS = [
    "verify master --n 1..6 --coeffs 1/3,1/3,1/3 --p 1/2",
    "verify master --n 2 --coeffs 1,2 --p 0.7 --mode float",
    "verify equal-coeff --n 1..3 --k 1..4 --p 1/2",
    "compute return-prob --dim 2 --steps 10",
    "compute moment --n 3 --p 1",
    "compute path-count --dim 3 --steps 4",
    "oracle --dim 2 --steps 4",
    "simulate walk --dim 2 --n 5 --trials 1000000 --seed 7",
    "simulate beta --dim 1 --n 1 --trials 1000000 --seed 1",
    "catalog list",
    "catalog verify k-dim-remark",
    "series --n 0 --variant printed",
    "catalog verify all",
]

EXTRA_COMMANDS = [
    "verify master --n 6 --coeffs 1,2,3,4,5 --p 3/2 --threads 2 --format json",
    "verify master --n 1..6 --k 1..3 --p 3/2 --format json",
    "verify master --n 1..3 --coeffs 1/2,1/3,7 --p 5/2 --format csv",
    "verify equal-coeff --n 1..4 --k 1..4 --p 5/2 --threads 2 --format json",
    "compute path-count --dim 6 --steps 20",
    "compute return-prob --dim 4 --steps 16 --format json",
    "verify master --n 1 --coeffs 1 --p 1/3",
    "compute moment --n 2 --p 1/3",
    "compute return-prob --dim 2 --steps 5",
    "verify master --n 1..12 --k 1..6 --p 3/2",
    "verify master --n 1..10 --coeffs 1/2,1/2,3,3,3 --p 7/5",
    "verify equal-coeff --n 1..6 --k 1..5 --p 5/2",
    "compute path-count --dim 9 --steps 80",
]

CASES = ([f"{c} --format {fmt}" for c in README_COMMANDS
          for fmt in ("plain", "json", "csv")] + EXTRA_COMMANDS)


def case_name(command: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", command).strip("_")


@pytest.mark.parametrize("command", CASES, ids=case_name)
def test_golden_output(command, capsys):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    name = case_name(command)
    code = main(command.split())
    assert code == codes[name]
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


# every level of the command tree, then argparse's own usage errors
HELP_LEVELS = ["", "verify", "compute", "simulate", "catalog",
               "verify master", "verify equal-coeff", "compute return-prob",
               "compute path-count", "compute moment", "oracle",
               "simulate walk", "simulate beta", "catalog list",
               "catalog verify", "series"]
PARSER_CASES = ([f"{level} --help".strip() for level in HELP_LEVELS] + [
    "verify", "verify bogus", "bogus", "verify master",
    "simulate walk --dim 2", "series --n 1 --variant nope"])
# argparse wraps help to the terminal's width, read from COLUMNS
PARSER_COLUMNS = "80"


def _parse_only(command: str) -> dict:
    """What argparse alone prints for ``command``, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(command.split())
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError(f"{command!r} ran past the parser")
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("command", PARSER_CASES)
def test_parser_output_is_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", PARSER_COLUMNS)
    pinned = json.loads((GOLDEN / "parser.json").read_text())
    assert _parse_only(command) == pinned[command]


def _simulate_record(path: Path) -> dict:
    """dim, n, exact and z of a pinned ``simulate`` output, in any format."""
    text = path.read_text()
    if path.stem.endswith("_json"):
        obj = json.loads(text)
        return dict(obj["parameters"], exact=obj["payload"]["exactReference"],
                    z=obj["payload"]["zScore"])
    if path.stem.endswith("_csv"):
        row = next(csv.DictReader(text.splitlines()))
        return dict(row, z=row["z_score"])
    return dict(kv.split("=", 1) for kv in text.split()[1:])


SIMULATE_GOLDENS = sorted(GOLDEN.glob("simulate_*.out"))


@pytest.mark.parametrize("path", SIMULATE_GOLDENS, ids=lambda p: p.stem)
def test_simulate_goldens_pin_a_passing_verdict(path):
    # a regenerated golden must still agree with the exact value
    record = _simulate_record(path)
    assert abs(float(record["z"])) < Z_LIMIT
    assert Fraction(record["exact"]) == return_probability(
        int(record["dim"]), int(record["n"]))


def test_every_simulate_format_is_pinned():
    assert len(SIMULATE_GOLDENS) == 6


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for command in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            codes[case_name(command)] = main(command.split())
        (GOLDEN / f"{case_name(command)}.out").write_text(out.getvalue())
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")
    os.environ["COLUMNS"] = PARSER_COLUMNS
    (GOLDEN / "parser.json").write_text(json.dumps(
        {command: _parse_only(command) for command in PARSER_CASES},
        indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
