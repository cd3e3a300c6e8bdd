"""The exact commands start without numpy and without a thread pool.

Only the Monte Carlo simulations need numpy; importing it costs more than
the rest of a typical exact command, so it must stay off that path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("numpy", "concurrent.futures") if m in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)

import betawalk
from betawalk import cli

report = {"import": loaded()}
for argv in (
    ["verify", "master", "--n", "1..3", "--coeffs", "1,2", "--p", "1/2",
     "--threads", "1"],
    ["compute", "path-count", "--dim", "3", "--steps", "4"],
    ["oracle", "--dim", "2", "--steps", "4"],
    ["catalog", "verify", "all"],
):
    assert run(argv) == 0, argv
report["exact"] = loaded()
run(["simulate", "walk", "--dim", "1", "--n", "1", "--trials", "1000",
     "--seed", "1", "--threads", "1"])
report["simulate"] = loaded()
print(json.dumps(report))
"""


def test_exact_commands_do_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["import"] == []
    assert report["exact"] == []
    assert "numpy" in report["simulate"]
