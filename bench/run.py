#!/usr/bin/env python3
"""betawalk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing).  ``--workload all`` runs every
workload in turn and prints one table.

``--trace 0`` runs the workload's commands as CLI subprocesses, one at a
time, in passes, as many as fit in ``--seconds`` (at least three), and
reports the end-to-end metrics.  ``--trace 1`` runs the same
commands in-process through ``betawalk.cli.main``, alternating untraced
and traced passes, and reports the per-layer metrics.  Every output is
checked against the references in ``check.py``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (operations are command invocations) and ``metrics``.  A human
readable table (with units and sample counts) goes to stderr, and a full
record -- environment, per-command timings, failures, spans -- is written
to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from check import Checker, Invocation  # noqa: E402
from spans import (LAYER_UNITS, Tracer, cache_counts,  # noqa: E402
                   reset_caches, run_in_process, self_times)
from workloads import WORKLOADS  # noqa: E402

CLI = ["-c", "from betawalk.cli import entry_point; entry_point()"]
SETUP_PROBES_PER_PASS = 5
IMPORT_PROBES = 5
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 100
PASS_BUDGET_S = 120  # start no pass that would end beyond this

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "cmd_p50_s": "s", "cmd_p90_s": "s", "peak_rss_mb": "MB",
}

# ROADMAP re-anchor one-shot figures (2-CPU machine), low..high seconds,
# and the call that reproduces each in the traced run.
BASELINES = {
    "baseline.lhs_master_s": (
        "lhs_master(6, (1..5), 3/2)", 0.13, 0.18,
        lambda m: m["moments"].lhs_master(6, (1, 2, 3, 4, 5), Fraction(3, 2))),
    "baseline.path_count_s": (
        "path_count(6, 30)", 0.70, 0.83,
        lambda m: m["walks"].path_count(6, 30)),
    "baseline.brute_force_s": (
        "brute_force_return(2, 5)", 0.44, 0.44,
        lambda m: m["walks"].brute_force_return(2, 5)),
    "baseline.simulate_walk_s": (
        "simulate_walk(dim 3, n 10, 1e6)", 0.74, 0.74,
        lambda m: m["walks"].simulate_walk(m["walks"].WalkSpec(3, 10), 10 ** 6,
                                           0, workers=1)),
}
BASELINE_SLACK = 0.25  # one-shot figures on a shared machine


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


# betawalk makes no BLAS calls, but numpy's BLAS starts one spinning thread
# per CPU at import; sized by the CPU count, that pool made start-up depend
# on whether the second CPU was free.  Like BETAWALK_THREADS, it is fixed.
FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BETAWALK_THREADS", "PYTHONPATH")}
    env.update(FIXED_ENV, PYTHONPATH=SRC)
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _capture_paths() -> tuple[str, str]:
    return (os.path.join(RESULTS, f".stdout-{os.getpid()}"),
            os.path.join(RESULTS, f".stderr-{os.getpid()}"))


def spawn(args: list[str], env: dict) -> dict:
    """Run the interpreter with ``args``; wall, CPU and max RSS from wait4."""
    out_path, err_path = _capture_paths()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + args, env,
                             file_actions=actions)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode("utf-8", "replace")
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "exit": os.waitstatus_to_exitcode(status),
            "stdout": stdout, "stderr": stderr}


def probe_program(env: dict) -> dict:
    """Import the CLI once (this also compiles it) and check where from."""
    r = spawn(["-c", "import sys, numpy, betawalk.cli; "
               "print(betawalk.cli.__file__); print(numpy.__version__)"], env)
    lines = r["stdout"].decode().split()
    if r["exit"] != 0 or len(lines) != 2:
        raise SetupError(f"cannot import betawalk.cli from {SRC}: "
                         f"{r['stderr'].strip()[-300:]}")
    if not os.path.abspath(lines[0]).startswith(SRC + os.sep):
        raise SetupError(f"betawalk.cli imported from {lines[0]}, not {SRC}")
    return {"numpy": lines[1]}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout's own .git, read directly (never a parent's)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, commands, numpy_version: str) -> dict:
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_revision": git_revision(), "platform": platform.platform(),
        "commands": [{"argv": list(c.argv), "threads": c.threads}
                     for c in commands],
    }


# ---------------------------------------------------------------------------
# untraced end-to-end run
# ---------------------------------------------------------------------------


def _room(measured: float, done: int, seconds: float) -> bool:
    """Whether one more pass of average length still ends within the window."""
    return measured * (done + 1) / done <= seconds


def run_end_to_end(commands, seconds: float, env: dict, checker: Checker):
    setup, passes, per_command = [], [], [[] for _ in commands]
    measured = 0.0
    while len(passes) < MIN_PASSES or _room(measured, len(passes), seconds):
        if passes and measured + passes[-1]["wall"] > PASS_BUDGET_S:
            break
        results = []
        start = time.perf_counter()
        for cmd in commands:
            results.append(spawn(CLI + list(cmd.argv), env))
        wall = time.perf_counter() - start
        measured += wall
        passes.append({"wall": wall, "cpu": sum(r["cpu"] for r in results)})
        for i, r in enumerate(results):
            checker.add(Invocation(i, r["exit"], r["stdout"], r["stderr"]))
            per_command[i].append(r)
        # set-up probes between passes sample the same stretch of time
        setup += [spawn(["-c", "import betawalk.cli"], env)["wall"]
                  for _ in range(SETUP_PROBES_PER_PASS)]
    walls = [r["wall"] for rs in per_command for r in rs]
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (median([p["wall"] for p in passes]), len(passes)),
        "cpu_s": (median([p["cpu"] for p in passes]), len(passes)),
        "cmd_p50_s": (statistics.median(walls), len(walls)),
        "cmd_p90_s": (statistics.quantiles(walls, n=10,
                                           method="inclusive")[-1], len(walls)),
        "peak_rss_mb": (max(r["rss_kb"] for rs in per_command for r in rs)
                        / 1024.0, len(walls)),
    }
    detail = [{"command": c.text, "threads": c.threads,
               "wall_s": median([r["wall"] for r in rs]),
               "cpu_s": median([r["cpu"] for r in rs]),
               "max_rss_mb": max(r["rss_kb"] for r in rs) / 1024.0,
               "exit": sorted({r["exit"] for r in rs})}
              for c, rs in zip(commands, per_command)]
    return metrics, {"passes": passes, "setup_s": setup, "commands": detail,
                     "invocation_walls": [[r["wall"] for r in rs]
                                          for rs in per_command],
                     "invocation_cpus": [[r["cpu"] for r in rs]
                                         for rs in per_command]}


# ---------------------------------------------------------------------------
# traced in-process run
# ---------------------------------------------------------------------------


def import_times(env: dict) -> dict:
    """Cumulative import time of the package and of numpy (-X importtime)."""
    pkg, numpy = [], []
    for _ in range(IMPORT_PROBES):
        r = spawn(["-X", "importtime", "-c", "import betawalk.cli"], env)
        total = np_total = 0
        for line in r["stderr"].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.strip().startswith("betawalk") and name == " " + name.strip():
                total += int(cumulative)
            if name.strip() == "numpy":
                np_total = int(cumulative)
        pkg.append(total / 1e6)
        numpy.append(np_total / 1e6)
    return {"cli.import_s": (median(pkg), len(pkg)),
            "cli.import_numpy_s": (median(numpy), len(numpy))}


def load_program() -> dict:
    """The layer modules; a layer that no longer exists reads as empty."""
    sys.path.insert(0, SRC)
    mods = {}
    for name in ("cli", "catalog", "compositions", "exact", "moments",
                 "numeric", "walks"):
        try:
            mods[name] = importlib.import_module(f"betawalk.{name}")
        except ImportError:
            if name == "cli":
                raise
            mods[name] = types.ModuleType(f"betawalk.{name}")
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise SetupError(f"betawalk imported from {mods['cli'].__file__}, "
                         f"not {SRC}")
    return mods


def layer_probe(mods) -> list:
    """One minimal call into each layer, made at the end of every in-process
    pass, so each layer time is measured on every workload: a layer the
    workload's commands do not use reads as this probe's time (microseconds
    to a millisecond) rather than a constant zero."""
    m, w, num = mods["moments"], mods["walks"], mods["numeric"]
    return [
        lambda: m.verify_master(1, (1,), Fraction(1, 2)),
        lambda: w.brute_force_return(1, 1),
        lambda: w.simulate_walk(w.WalkSpec(1, 1), 1000, 0, workers=1),
        lambda: w.simulate_beta_moment(1, 1, 1000, 0, workers=1),
        lambda: mods["catalog"].verify_vandermonde(1),
        lambda: num.verify_master_float(1, [1.0], 0.5),
        lambda: num.evaluate_series(0, "over-k-factorial-squared"),
    ]


def _attempt(label: str, call) -> None:
    """Make one probe or baseline call; a failure is reported, not raised."""
    try:
        call()
    except Exception as exc:  # a layer API that moved
        print(f"# {label}: {type(exc).__name__}: {exc}", file=sys.stderr)


def _run_probe(probe, exact, tracer) -> None:
    reset_caches(exact)
    if tracer:
        tracer.cmd = "probe"
    for call in probe:
        _attempt("layer probe", call)


def _in_process_pass(commands, mods, checker, probe, tracer=None):
    """One pass; returns (wall, per-pass layer totals or None)."""
    cli, exact = mods["cli"], mods["exact"]
    first = tracer.start_pass() if tracer else 0
    if tracer:
        tracer.install()
    layer = {"cli.stdout_bytes": 0}
    caches: dict = {}
    outputs = []
    start = time.perf_counter()
    try:
        for i, cmd in enumerate(commands):
            reset_caches(exact)
            if tracer:
                tracer.cmd = i
                with tracer.span("cli.main"):
                    result = run_in_process(cli, cmd.argv)
                for key, value in cache_counts(exact).items():
                    if key == "exact.factorial_entries":
                        caches[key] = max(caches.get(key, 0), value)
                    else:
                        caches[key] = caches.get(key, 0) + value
            else:
                result = run_in_process(cli, cmd.argv)
            outputs.append(result)
        _run_probe(probe, exact, tracer)
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    for i, (code, out, err) in enumerate(outputs):
        checker.add(Invocation(i, code, out, err))
        layer["cli.stdout_bytes"] += len(out)
    if not tracer:
        return wall, None
    layer.update(tracer.pass_metrics(first))
    layer.update(tracer.counters)
    layer.update(caches)
    return wall, layer


def _baselines(mods, tracer) -> dict:
    out = {}
    tracer.install()
    try:
        for name, (_, _, _, call) in BASELINES.items():
            reset_caches(mods["exact"])
            tracer.cmd = name
            with tracer.span(name) as rec:
                _attempt(name, lambda: call(mods))
            out[name] = rec[2] - rec[1]
    finally:
        tracer.uninstall()
    return out


def run_traced(commands, seconds: float, env: dict, checker: Checker):
    metrics = import_times(env)
    os.environ.pop("BETAWALK_THREADS", None)
    os.environ.update(FIXED_ENV)
    mods = load_program()
    tracer = Tracer(mods)
    probe = layer_probe(mods)
    plain, traced, layers = [], [], []
    measured = 0.0
    rounds = 0
    while rounds < 2 or _room(measured, rounds, seconds):
        if rounds and measured * (rounds + 1) / rounds > PASS_BUDGET_S:
            break
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for use_tracer in order:
            wall, layer = _in_process_pass(commands, mods, checker, probe,
                                           tracer if use_tracer else None)
            measured += wall
            (traced if use_tracer else plain).append(wall)
            if layer is not None:
                layers.append(layer)
        rounds += 1
    for name in LAYER_UNITS:
        if name.startswith(("cli.import", "trace.", "baseline.")):
            continue
        values = [layer.get(name, 0) for layer in layers]
        metrics[name] = (median(values), len(values))
    metrics["trace.overhead_s"] = (median(traced) - median(plain), len(traced))
    baseline = _baselines(mods, tracer)
    for name, value in baseline.items():
        metrics[name] = (value, 1)
    checks = {}
    for name, (what, lo, hi, _) in BASELINES.items():
        ok = lo * (1 - BASELINE_SLACK) <= baseline[name] <= hi * (1 + BASELINE_SLACK)
        checks[name] = {"call": what, "seconds": baseline[name],
                        "roadmap": [lo, hi], "reproduced": ok}
    return metrics, {"untraced_pass_s": plain, "traced_pass_s": traced,
                     "baseline_check": checks, "untraced_targets": tracer.missing,
                     "spans": tracer.spans}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[name](seed)
    env = child_env()
    os.makedirs(RESULTS, exist_ok=True)
    try:
        versions = probe_program(env)
        checker = Checker(commands)
        if trace:
            metrics, detail = run_traced(commands, seconds, env, checker)
            units = LAYER_UNITS
        else:
            metrics, detail = run_end_to_end(commands, seconds, env, checker)
            units = END_TO_END
    finally:
        for path in _capture_paths():
            if os.path.exists(path):
                os.remove(path)
    record = {
        "environment": environment(name, seed, commands, versions["numpy"]),
        "trace": trace,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                    for k, (v, n) in metrics.items()},
        "attempted": checker.attempted, "failed": checker.failed,
        "error_rate": checker.failed / max(1, checker.attempted),
        "failures": checker.failures[:50],
    }
    spans = detail.pop("spans", None)
    record["detail"] = detail
    stem = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, default=str)
    if spans is not None:
        with open(stem + ".spans.jsonl", "w") as f:
            for s, self_s in zip(spans, self_times(spans)):
                f.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "cmd"), s),
                    self_s=self_s)) + "\n")
    return record


def print_table(record: dict, out) -> None:
    env = record["environment"]
    print(f"# {env['workload']} seed={env['seed']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"rev={env['git_revision'][:12]}", file=out)
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:10s} "
              f"n={m['samples']}", file=out)
    print(f"  {'error_rate':28s} {record['error_rate']:14.6g} {'ratio':10s} "
          f"n={record['attempted']} (failed {record['failed']})", file=out)
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure['command']}: {failure['problems'][0]}",
              file=out)
    for name, c in record["detail"].get("baseline_check", {}).items():
        print(f"  {name}: {c['seconds']:.3f}s vs ROADMAP "
              f"{c['roadmap'][0]}-{c['roadmap'][1]}s: "
              f"{'reproduced' if c['reproduced'] else 'NOT reproduced'}",
              file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "betawalk", "cli.py")):
        print(f"bench: no betawalk sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_table(record, sys.stdout if args.workload == "all" else sys.stderr)
    if args.workload == "all":
        return 0
    record = records[0]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
