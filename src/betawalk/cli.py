"""Command-line entry point.

Data records go to standard output (one per line; plain, JSON-lines, or
CSV), all human-readable decoration (banners, timing) goes to standard
error, so the tool composes in pipelines.  Exit codes: 0 success,
1 exact-identity violation or oracle mismatch, 2 usage error,
3 statistical-tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import signal
import sys
import time
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from . import catalog as catalog_mod
from .exact import HalfInt
from .moments import verify_equal_coeff_form, verify_master, even_moment
from .numeric import SERIES_VARIANTS, evaluate_series, verify_master_float
from .render import decimal15, fraction_str
from .walks import (
    DEFAULT_PATH_BUDGET,
    PathBudgetError,
    PathCount,
    WalkSpec,
    brute_force_return,
    path_count,
    return_probability,
    return_probability_odd,
    simulate_beta_moment,
    simulate_walk,
)

Z_LIMIT = 4.0

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_STATISTICAL = 3


class UsageError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    """Strict command-line rational: an integer or "a/b", no decimals."""
    if re.fullmatch(r"-?\d+(/[1-9]\d*)?", text):
        return Fraction(text)
    raise UsageError(f"expected an integer or a/b rational, got {text!r}")


def _parse_real(text: str) -> float:
    """Float-mode value: rational syntax or a decimal."""
    if re.fullmatch(r"-?\d+(/[1-9]\d*)?", text):
        return float(Fraction(text))
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"expected a number, got {text!r}") from None


def _parse_range(text: str) -> list[int]:
    """"3" or "1..4" (inclusive)."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise UsageError(f"expected N or LO..HI, got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _threads(args) -> int:
    """--threads, else BETAWALK_THREADS, else the logical CPU count."""
    if args.threads is not None:
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        return args.threads
    env = os.environ.get("BETAWALK_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"BETAWALK_THREADS must be an integer, got {env!r}")
        if value < 1:
            raise UsageError("BETAWALK_THREADS must be >= 1")
        return value
    return os.cpu_count() or 1


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _status(ok: bool) -> str:
    return "ok" if ok else "violated"


class Record(NamedTuple):
    """One output record.

    ``row`` maps at least the command's CSV columns to values rendered with
    ``str``; it fills both the plain template and the CSV line, and CSV
    ignores the keys that only the template uses, or that neither does.
    """

    parameters: dict
    payload: object
    status: str  # "ok" | "violated"
    row: dict


class Emitter:
    """Serialize one command's records to stdout in the chosen format.

    Plain output is ``plain_template`` filled from the record's row, CSV
    writes the row's ``columns`` under one header, and JSON writes the
    payload with the record's parameters and status.
    """

    def __init__(self, fmt: str, command: str, columns: list[str],
                 plain_template: str):
        self.fmt = fmt
        self.command = command
        self.columns = columns
        self.plain_template = plain_template
        self._wrote_header = False

    def emit(self, record: Record) -> None:
        if self.fmt == "json":
            payload = record.payload
            obj = payload.to_json_obj() if hasattr(payload, "to_json_obj") else payload
            print(json.dumps({
                "command": self.command,
                "parameters": record.parameters,
                "payload": obj,
                "status": record.status,
            }))
        elif self.fmt == "csv":
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=self.columns,
                                    lineterminator="\n", extrasaction="ignore")
            if not self._wrote_header:
                writer.writeheader()
                self._wrote_header = True
            writer.writerow(record.row)
            print(buf.getvalue(), end="")
        else:
            print(self.plain_template.format(**record.row))


Output = tuple[Emitter, list[Record]]


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _erratum_banner(entry: catalog_mod.CatalogEntry) -> None:
    if entry.erratum:
        _note(f"ERRATUM [{entry.name}] ({entry.location}): {entry.erratum}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify_master(args) -> Output:
    threads = _threads(args)
    n_values = _parse_range(args.n)
    if (args.coeffs is None) == (args.k is None):
        raise UsageError("give exactly one of --coeffs or --k")
    if args.mode == "exact":
        p = _parse_rational(args.p)
    else:
        p = _parse_real(args.p)
    if not p > 0:
        raise UsageError("p must be > 0")

    coeff_sets: list[tuple] = []
    if args.coeffs is not None:
        parts = [s for s in args.coeffs.split(",") if s]
        if not parts:
            raise UsageError("--coeffs must list at least one value")
        if args.mode == "exact":
            coeff_sets.append(tuple(_parse_rational(s) for s in parts))
        else:
            coeff_sets.append(tuple(_parse_real(s) for s in parts))
    else:
        for k in _parse_range(args.k):
            if k < 1:
                raise UsageError("k must be >= 1")
            one = Fraction(1) if args.mode == "exact" else 1.0
            coeff_sets.append((one,) * k)
    for cs in coeff_sets:
        if any(not c > 0 for c in cs):
            raise UsageError("coefficients must be positive")
    for n in n_values:
        if n < 1:
            raise UsageError("n must be >= 1")

    columns = ["n", "k", "p", "coeffs", "mode", "lhs", "rhs"]
    if args.mode == "exact":
        out = Emitter(args.format, "verify master", columns + ["verified"],
                      "master n={n} k={k} p={p} coeffs={coeffs} "
                      "lhs={lhs} rhs={rhs} verified={verified}")
    else:
        out = Emitter(args.format, "verify master",
                      columns + ["abs_diff", "rel_diff", "condition_number",
                                 "tolerance", "passed"],
                      "master-float n={n} k={k} p={p} coeffs={coeffs} "
                      "lhs={lhs} rhs={rhs} relDiff={rel_diff} "
                      "cond={condition_number} passed={passed}")
    started = time.perf_counter()
    records = []
    for n in n_values:
        for cs in coeff_sets:
            coeff_text = ",".join(str(c) for c in cs)
            params = {"n": n, "k": len(cs), "p": str(p), "coeffs": coeff_text,
                      "mode": args.mode, "threads": threads}
            row = dict(params)
            if args.mode == "exact":
                rep = verify_master(n, cs, p)
                ok = rep.verified
                row.update(lhs=rep.lhs, rhs=rep.rhs, verified=_bool(ok))
            else:
                rep = verify_master_float(n, cs, p, tolerance=args.tolerance)
                ok = rep.passed
                row.update(lhs=rep.lhs, rhs=rep.rhs, abs_diff=rep.abs_diff,
                           rel_diff=rep.rel_diff,
                           condition_number=rep.condition_number,
                           tolerance=rep.tolerance, passed=_bool(ok))
            records.append(Record(params, rep, _status(ok), row))
    _note(f"# verify master: {time.perf_counter() - started:.3f}s, "
          f"threads={threads}")
    return out, records


def _cmd_verify_equal_coeff(args) -> Output:
    threads = _threads(args)
    p = _parse_rational(args.p)
    if not p > 0:
        raise UsageError("p must be > 0")
    out = Emitter(args.format, "verify equal-coeff",
                  ["n", "k", "p", "lhs", "rhs", "verified"],
                  "equal-coeff n={n} k={k} p={p} lhs={lhs} rhs={rhs} "
                  "verified={verified}")
    started = time.perf_counter()
    records = []
    for n in _parse_range(args.n):
        for k in _parse_range(args.k):
            if n < 1 or k < 1:
                raise UsageError("n and k must be >= 1")
            rep = verify_equal_coeff_form(n, k, p)
            params = {"n": n, "k": k, "p": str(p), "threads": threads}
            records.append(Record(params, rep, _status(rep.verified), dict(
                params, lhs=rep.lhs, rhs=rep.rhs,
                verified=_bool(rep.verified))))
    _note(f"# verify equal-coeff: {time.perf_counter() - started:.3f}s, "
          f"threads={threads}")
    return out, records


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _even_steps(args) -> tuple[int, bool]:
    """Returns (half_steps, odd_shortcut); odd steps need --allow-odd."""
    if args.steps < 1:
        raise UsageError("steps must be >= 1")
    if args.steps % 2:
        if not args.allow_odd:
            raise UsageError(
                f"steps={args.steps} is odd (parity forces probability 0); "
                f"pass --allow-odd to print the exact 0")
        return args.steps, True
    return args.steps // 2, False


def _cmd_compute(args) -> Output:
    if args.what in ("return-prob", "path-count"):
        if args.dim is None or args.steps is None:
            raise UsageError(f"{args.what} needs --dim and --steps")
        if args.dim < 1:
            raise UsageError("dim must be >= 1")
        half, odd = _even_steps(args)
        params = {"dim": args.dim, "steps": args.steps}
        if args.what == "return-prob":
            value = (return_probability_odd(args.dim, args.steps) if odd
                     else return_probability(args.dim, half))
            payload = {"probability": fraction_str(value),
                       "decimal": decimal15(value)}
            out = Emitter(args.format, "compute return-prob",
                          ["dim", "steps", "probability", "decimal"],
                          "{probability} {decimal}")
            return out, [Record(params, payload, "ok",
                                dict(params, **payload))]
        if odd:  # no closed path of odd length exists
            pc = PathCount(0, (2 * args.dim) ** args.steps)
        else:
            pc = path_count(args.dim, half)
        out = Emitter(args.format, "compute path-count",
                      ["dim", "steps", "count", "total_paths", "probability",
                       "decimal"],
                      "{count}/{total_paths} {decimal}")
        return out, [Record(params, pc, "ok", dict(
            params, count=pc.count, total_paths=pc.total_paths,
            probability=fraction_str(pc.probability),
            decimal=decimal15(pc.probability)))]

    # moment
    if args.n is None or args.p is None:
        raise UsageError("moment needs --n and --p")
    if args.n < 1:
        raise UsageError("n must be >= 1")
    p = _parse_rational(args.p)
    if not p > 0:
        raise UsageError("p must be > 0")
    try:
        value = even_moment(args.n, HalfInt.of(p))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # the sqrt(pi) powers cancel; the moment is a plain rational
    moment = value.coeff
    payload = {"value": fraction_str(moment), "decimal": decimal15(moment)}
    out = Emitter(args.format, "compute moment",
                  ["n", "p", "value", "decimal"], "{value} {decimal}")
    return out, [Record({"n": args.n, "p": str(p)}, payload, "ok",
                        dict(payload, n=args.n, p=p))]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args) -> Output:
    if args.dim < 1:
        raise UsageError("dim must be >= 1")
    if args.steps < 1 or args.steps % 2:
        raise UsageError("oracle needs a positive even --steps")
    half = args.steps // 2
    try:
        pc = brute_force_return(args.dim, half, budget=args.budget)
    except PathBudgetError as exc:
        raise UsageError(str(exc)) from None
    expected = return_probability(args.dim, half)
    matches = pc.probability == expected
    out = Emitter(args.format, "oracle",
                  ["dim", "steps", "count", "total_paths", "probability",
                   "expected", "matches"],
                  "{count}/{total_paths} {match}")
    params = {"dim": args.dim, "steps": args.steps, "budget": args.budget}
    payload = dict(pc.to_json_obj(), expected=fraction_str(expected),
                   matches=matches)
    row = dict(params, count=pc.count, total_paths=pc.total_paths,
               probability=fraction_str(pc.probability),
               expected=fraction_str(expected), matches=_bool(matches),
               match="match" if matches else "MISMATCH")
    return out, [Record(params, payload, _status(matches), row)]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> Output:
    workers = _threads(args)
    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    if args.dim < 1 or args.n < 1:
        raise UsageError("dim and n must be >= 1")
    if args.kind == "walk":
        result = simulate_walk(WalkSpec(args.dim, args.n), args.trials,
                               args.seed, workers=workers)
    else:
        result = simulate_beta_moment(args.dim, args.n, args.trials,
                                      args.seed, workers=workers)
    out = Emitter(args.format, f"simulate {args.kind}",
                  ["kind", "dim", "n", "trials", "seed", "workers", "hits",
                   "estimate", "std_error", "exact", "z_score"],
                  "{kind} dim={dim} n={n} trials={trials} seed={seed} "
                  "workers={workers} hits={hits} estimate={estimate} "
                  "stdError={std_error} exact={exact} z={z_score}")
    params = {"dim": args.dim, "n": args.n, "trials": args.trials,
              "seed": args.seed, "workers": workers}
    row = dict(params, kind=args.kind,
               hits="" if result.hits is None else result.hits,
               estimate=result.estimate, std_error=result.std_error,
               exact=fraction_str(result.exact_reference),
               z_score=result.z_score)
    ok = abs(result.z_score) < Z_LIMIT
    return out, [Record(params, result, _status(ok), row)]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _cmd_catalog(args) -> Output:
    if args.action == "list":
        out = Emitter(args.format, "catalog list",
                      ["name", "variant", "location", "parameter_range",
                       "erratum"],
                      "{name} [{variant}] {location}; range: {parameter_range}")
        records = []
        for entry in catalog_mod.entries():
            _erratum_banner(entry)
            payload = {"name": entry.name, "variant": entry.variant,
                       "location": entry.location,
                       "parameterRange": entry.parameter_range,
                       "erratum": entry.erratum}
            records.append(Record({"name": entry.name}, payload, "ok", dict(
                payload, parameter_range=entry.parameter_range,
                erratum=entry.erratum or "")))
        return out, records

    names = [args.name] if args.name != "all" else list(catalog_mod.CATALOG)
    for name in names:
        if name not in catalog_mod.CATALOG:
            raise UsageError(f"unknown catalog entry {name!r} "
                             f"(try: {', '.join(catalog_mod.CATALOG)})")
    out = Emitter(args.format, "catalog verify",
                  ["name", "variant", "parameters", "lhs", "rhs", "verified"],
                  "{name} variant={variant} {parameters} lhs={lhs} rhs={rhs} "
                  "verified={verified}")
    started = time.perf_counter()
    records = []

    def record(rep, counterexample: bool) -> Record:
        # a counterexample is expected to fail; its record is still ok
        shown = {k: v for k, v in rep.parameters.items() if k != "variant"}
        return Record(dict(rep.parameters), rep,
                      _status(rep.verified or counterexample),
                      {"name": rep.identity_name,
                       "variant": rep.parameters.get("variant", "corrected"),
                       "parameters": ",".join(f"{k}={v}"
                                              for k, v in shown.items()),
                       "lhs": rep.lhs, "rhs": rep.rhs,
                       "verified": _bool(rep.verified)})

    for name in names:
        entry = catalog_mod.CATALOG[name]
        _erratum_banner(entry)
        records.extend(record(rep, False) for rep in entry.run())
        if entry.counterexample is not None:
            records.append(record(entry.counterexample(), True))
    _note(f"# catalog verify: {time.perf_counter() - started:.3f}s")
    return out, records


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series(args) -> Output:
    if args.n < 0:
        raise UsageError("n must be >= 0")
    if args.max_terms < 1:
        raise UsageError("max-terms must be >= 1")
    evaluation = evaluate_series(args.n, args.variant,
                                 max_terms=args.max_terms,
                                 cutoff=args.cutoff)
    out = Emitter(args.format, "series",
                  ["n", "variant", "terms_evaluated", "converged", "diverged",
                   "limit_estimate", "target", "last_term"],
                  "series n={n} variant={variant} terms={terms_evaluated} "
                  "converged={converged} diverged={diverged} "
                  "limitEstimate={limit_estimate} target={target}")
    params = {"n": args.n, "variant": args.variant,
              "maxTerms": args.max_terms, "cutoff": args.cutoff}
    row = {"n": args.n, "variant": args.variant,
           "terms_evaluated": evaluation.terms_evaluated,
           "converged": _bool(evaluation.converged),
           "diverged": _bool(evaluation.diverged),
           "limit_estimate": evaluation.limit_estimate,
           "target": evaluation.target, "last_term": evaluation.terms[-1]}
    return out, [Record(params, evaluation, "ok", row)]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain", help="output record format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betawalk",
        description=("Exact verification of beta-moment identities and "
                     "lattice walk return probabilities."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run exact or float verification")
    vsub = verify.add_subparsers(dest="target", required=True)

    vm = vsub.add_parser("master", help="the two-expansion moment identity")
    vm.add_argument("--n", required=True, help="N or LO..HI")
    vm.add_argument("--coeffs", help="comma-separated weights, e.g. 1/3,1/3")
    vm.add_argument("--k", help="dimension range (unit weights), e.g. 1..4")
    vm.add_argument("--p", required=True, help="beta shape (a/b; decimal in float mode)")
    vm.add_argument("--mode", choices=("exact", "float"), default="exact")
    vm.add_argument("--tolerance", type=float, default=1e-10)
    vm.add_argument("--threads", type=int,
                    help="echoed in the output; exact runs use one thread")
    _add_format(vm)
    vm.set_defaults(handler=_cmd_verify_master)

    ve = vsub.add_parser("equal-coeff",
                         help="coefficient-free symmetric form")
    ve.add_argument("--n", required=True, help="N or LO..HI")
    ve.add_argument("--k", required=True, help="N or LO..HI")
    ve.add_argument("--p", required=True)
    ve.add_argument("--threads", type=int,
                    help="echoed in the output; exact runs use one thread")
    _add_format(ve)
    ve.set_defaults(handler=_cmd_verify_equal_coeff)

    compute = sub.add_parser("compute", help="exact values")
    csub = compute.add_subparsers(dest="what", required=True)
    for what, helptext in (("return-prob", "exact return probability"),
                           ("path-count", "closed-path count"),
                           ("moment", "even moment of the centered beta")):
        cp = csub.add_parser(what, help=helptext)
        if what == "moment":
            cp.add_argument("--n", type=int)
            cp.add_argument("--p")
        else:
            cp.add_argument("--dim", type=int)
            cp.add_argument("--steps", type=int)
            cp.add_argument("--allow-odd", action="store_true")
        _add_format(cp)
        cp.set_defaults(handler=_cmd_compute)

    oracle = sub.add_parser("oracle",
                            help="exhaustive path-enumeration cross-check")
    oracle.add_argument("--dim", type=int, required=True)
    oracle.add_argument("--steps", type=int, required=True)
    oracle.add_argument("--budget", type=int, default=DEFAULT_PATH_BUDGET)
    _add_format(oracle)
    oracle.set_defaults(handler=_cmd_oracle)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo")
    ssub = simulate.add_subparsers(dest="kind", required=True)
    for kind, helptext in (("walk", "simulate lattice walks"),
                           ("beta", "sample the matching beta moment")):
        sp = ssub.add_parser(kind, help=helptext)
        sp.add_argument("--dim", type=int, required=True)
        sp.add_argument("--n", type=int, required=True,
                        help="half the walk length")
        sp.add_argument("--trials", type=int, required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int,
                        help="worker threads (default: BETAWALK_THREADS, "
                             "else the CPU count)")
        _add_format(sp)
        sp.set_defaults(handler=_cmd_simulate)

    cat = sub.add_parser("catalog", help="identity registry")
    catsub = cat.add_subparsers(dest="action", required=True)
    cl = catsub.add_parser("list", help="list entries and errata")
    _add_format(cl)
    cl.set_defaults(handler=_cmd_catalog)
    cv = catsub.add_parser("verify", help="verify entries over their ranges")
    cv.add_argument("name", nargs="?", default="all")
    _add_format(cv)
    cv.set_defaults(handler=_cmd_catalog)

    series = sub.add_parser("series",
                            help="partial-sum diagnostics for the "
                                 "central-binomial ratio series")
    series.add_argument("--n", type=int, required=True)
    series.add_argument("--variant", choices=SERIES_VARIANTS, required=True)
    series.add_argument("--max-terms", type=int, default=10 ** 6)
    series.add_argument("--cutoff", type=float, default=1e-12)
    _add_format(series)
    series.set_defaults(handler=_cmd_series)

    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is None else list(argv))
    try:
        out, records = args.handler(args)
    except ValueError as exc:  # UsageError and the library's own rejections
        print(f"betawalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for record in records:
        out.emit(record)
    if any(record.status == "violated" for record in records):
        return EXIT_STATISTICAL if args.command == "simulate" else EXIT_VIOLATED
    return EXIT_OK


def entry_point() -> None:
    # A reader that closes stdout early (`| head`) ends the process the way
    # it ends `cat`, instead of a BrokenPipeError traceback on stderr.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
