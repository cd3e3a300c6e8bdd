"""Command-line entry point.

Data records go to standard output (one per line; plain, JSON-lines, or
CSV), all human-readable decoration (banners, timing) goes to standard
error, so the tool composes in pipelines.  Exit codes: 0 success,
1 exact-identity violation or oracle mismatch, 2 usage error (a bad
argument, or an input the library rejects: a range, sign or shape out of
bounds, a path or work budget too small, a walk length beyond int64, an
exact value too long to print; or a float-mode side beyond the double
range), 3 statistical-tolerance failure of a simulation, 70 internal
error (any other exception, reported as one ``betawalk: internal error:
...`` line).

Float mode reads each decimal as its exact value and runs the exact
engine; its record shows the exact verdict in doubles.

The CLI turns text into values and checks only what that needs: the
number syntax, which options go together, and odd walk lengths; every
range, sign and shape rule, and the worker count's default of 1, belong to
the library.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
import time
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

# Handlers import their library layers, and the emitter its serializer, when
# they run, so a command loads only what it uses: without cached bytecode each
# module loaded is compiled from source at every start.
from .render import (DEFAULT_PATH_BUDGET, MAX_WORKERS, SERIES_MAX_TERMS,
                     SERIES_VARIANTS, InputError, brief, decimal15,
                     fraction_str)

Z_LIMIT = 4.0

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_STATISTICAL = 3
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h


_RATIONAL = r"-?\d+(/[1-9]\d*)?"  # an integer or "a/b"
# a finite decimal, e.g. 0.7, .5 or -1e-3; at most three exponent digits,
# so 1e-1000000000 is refused before its power of ten is built
_DECIMAL = r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d{1,3})?"
_QUOTED = 40  # the most characters of an argument a parse error quotes


def _quote(text: str) -> str:
    """The argument as a parse error quotes it: at most its first
    ``_QUOTED`` characters."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _fraction(text: str, syntax: str, expected: str) -> Fraction:
    """``text`` as its exact value once it matches ``syntax``; a number
    longer than Python's int-to-str limit is refused with its message."""
    if not re.fullmatch(syntax, text):
        raise InputError(f"expected {expected}, got {_quote(text)}")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_rational(text: str) -> Fraction:
    """Strict command-line rational: an integer or "a/b", no decimals."""
    return _fraction(text, _RATIONAL, "an integer or a/b rational")


def _parse_decimal(text: str) -> Fraction:
    """Float-mode value: rational syntax or a finite decimal, read exactly
    (0.7 is 7/10)."""
    return _fraction(text, f"{_RATIONAL}|{_DECIMAL}",
                     "a rational or a finite decimal")


def _parse_as(kind):
    """An option read as argparse's ``type=kind`` reads it, for kind int
    or float; a refusal quotes the argument by ``_quote``."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {_quote(text)}") from None
    return parse


_parse_int, _parse_float = _parse_as(int), _parse_as(float)


def _parse_range(text: str) -> range:
    """"3" or "1..4" (inclusive)."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise InputError(f"expected N or LO..HI, got {_quote(text)}")
    try:
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) else lo
    except ValueError as exc:  # longer than the int-to-str limit
        raise InputError(str(exc)) from None
    if hi < lo:
        raise InputError(f"empty range {_quote(text)}")
    return range(lo, hi + 1)


def _threads(args) -> int:
    """--threads (default 1), from 1 to ``MAX_WORKERS`` on every command."""
    if args.threads < 1:
        raise InputError("--threads must be >= 1")
    if args.threads > MAX_WORKERS:
        raise InputError(f"workers must be at most {MAX_WORKERS}")
    return args.threads


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
    """Serialize one command's records in the chosen format.

    Plain output is ``plain_template`` filled from the record's row, CSV
    writes the row's ``columns`` under one header, and JSON writes the
    payload with the record's parameters and status.
    """

    note = ""  # a handler's stderr line, printed once every record renders

    def __init__(self, fmt: str, command: str, columns: list[str],
                 plain_template: str):
        self.fmt = fmt
        self.command = command
        self.columns = columns
        self.plain_template = plain_template
        self._csv = None  # the CSV writer, made at the first record

    def emit(self, record: Record) -> str:
        """The record's stdout lines; the CSV header comes with the first."""
        if self.fmt == "json":
            import json
            payload = record.payload
            obj = payload.to_json_obj() if hasattr(payload, "to_json_obj") else payload
            # strict JSON: a non-finite float is a fault, never Infinity
            return json.dumps({
                "command": self.command,
                "parameters": record.parameters,
                "payload": obj,
                "status": record.status,
            }, allow_nan=False) + "\n"
        if self.fmt == "csv":
            header = ""
            if self._csv is None:
                import csv
                from types import SimpleNamespace
                # writerow returns what write returns: the line itself
                self._csv = csv.DictWriter(
                    SimpleNamespace(write=str), fieldnames=self.columns,
                    lineterminator="\n", extrasaction="ignore")
                header = self._csv.writeheader()
            return header + self._csv.writerow(record.row)
        return self.plain_template.format(**record.row) + "\n"


Output = tuple[Emitter, list[Record]]


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _erratum_banner(entry) -> None:
    if entry.erratum:
        _note(f"ERRATUM [{entry.name}] ({entry.location}): {entry.erratum}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _in_doubles(n: int, rep) -> dict:
    """A float record's payload: the exact sides as doubles, their exact
    relative difference as a double, and the exact verdict.

    A side beyond the double range, overflowing or nonzero below the
    smallest normal double, raises InputError.
    """
    lhs, rhs = rep.lhs.coeff, rep.rhs.coeff
    beyond = f"float evaluation at n={n} exceeds the double range"
    try:
        doubles = float(lhs), float(rhs)
    except OverflowError:
        raise InputError(f"{beyond} (overflow)") from None
    if any(0 < abs(side) < sys.float_info.min for side in (lhs, rhs)):
        raise InputError(f"{beyond} (underflow)")
    return {"lhs": doubles[0], "rhs": doubles[1],
            "relDiff": float(abs(lhs - rhs) / max(abs(lhs), abs(rhs))),
            "passed": rep.verified}


def _cmd_verify_master(args) -> Output:
    threads = _threads(args)
    n_values = _parse_range(args.n)
    if (args.coeffs is None) == (args.k is None):
        raise InputError("give exactly one of --coeffs or --k")
    parse = _parse_rational if args.mode == "exact" else _parse_decimal
    p = parse(args.p)

    weights = None  # the --coeffs vector; --k gives unit weights
    if args.coeffs is not None:
        parts = [s for s in args.coeffs.split(",") if s]
        if not parts:
            raise InputError("--coeffs must list at least one value")
        weights = tuple(map(parse, parts))
        k_values = [len(weights)]
    else:
        k_values = _parse_range(args.k)

    from .moments import _check_lengths, verify_master
    columns = ["n", "k", "p", "coeffs", "mode", "lhs", "rhs"]
    if args.mode == "exact":
        out = Emitter(args.format, "verify master", columns + ["verified"],
                      "master n={n} k={k} p={p} coeffs={coeffs} "
                      "lhs={lhs} rhs={rhs} verified={verified}")
    else:
        out = Emitter(args.format, "verify master",
                      columns + ["rel_diff", "passed"],
                      "master-float n={n} k={k} p={p} coeffs={coeffs} "
                      "lhs={lhs} rhs={rhs} relDiff={rel_diff} "
                      "passed={passed}")
    started = time.perf_counter()
    records = []
    for n in n_values:
        for k in k_values:
            if weights is None:  # asked before the k unit weights exist
                _check_lengths(n, k, p)
            cs = weights or (Fraction(1),) * k
            coeff_text = ",".join(str(c) for c in cs)
            params = {"n": n, "k": len(cs), "p": str(p), "coeffs": coeff_text,
                      "mode": args.mode, "threads": threads}
            rep = verify_master(n, cs, p)
            payload, row = rep, dict(params, lhs=rep.lhs, rhs=rep.rhs,
                                     verified=_bool(rep.verified))
            if args.mode == "float":
                payload = _in_doubles(n, rep)
                row.update(lhs=payload["lhs"], rhs=payload["rhs"],
                           rel_diff=payload["relDiff"],
                           passed=_bool(rep.verified))
            records.append(Record(params, payload, _status(rep.verified),
                                  row))
    out.note = (f"# verify master: {time.perf_counter() - started:.3f}s, "
                f"threads={threads}")
    return out, records


def _cmd_verify_equal_coeff(args) -> Output:
    threads = _threads(args)
    p = _parse_rational(args.p)
    from .moments import verify_equal_coeff_form
    out = Emitter(args.format, "verify equal-coeff",
                  ["n", "k", "p", "lhs", "rhs", "verified"],
                  "equal-coeff n={n} k={k} p={p} lhs={lhs} rhs={rhs} "
                  "verified={verified}")
    started = time.perf_counter()
    records = []
    for n in _parse_range(args.n):
        for k in _parse_range(args.k):
            rep = verify_equal_coeff_form(n, k, p)
            params = {"n": n, "k": k, "p": str(p), "threads": threads}
            records.append(Record(params, rep, _status(rep.verified), dict(
                params, lhs=rep.lhs, rhs=rep.rhs,
                verified=_bool(rep.verified))))
    out.note = (f"# verify equal-coeff: {time.perf_counter() - started:.3f}s, "
                f"threads={threads}")
    return out, records


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _even_steps(args) -> tuple[int, bool]:
    """Returns (half_steps, odd_shortcut); odd steps need --allow-odd."""
    if args.steps % 2:
        if not args.allow_odd:
            raise InputError(
                f"steps={brief(args.steps)} is odd (parity forces "
                f"probability 0); pass --allow-odd to print the exact 0")
        return args.steps, True
    return args.steps // 2, False


def _cmd_compute(args) -> Output:
    if args.what in ("return-prob", "path-count"):
        if args.dim is None or args.steps is None:
            raise InputError(f"{args.what} needs --dim and --steps")
        half, odd = _even_steps(args)
        from .walks import (path_count, path_count_odd, return_probability,
                            return_probability_odd)
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
        pc = (path_count_odd(args.dim, args.steps) if odd
              else path_count(args.dim, half))
        payload = pc.to_json_obj()  # every integer is rendered here
        out = Emitter(args.format, "compute path-count",
                      ["dim", "steps", "count", "total_paths", "probability",
                       "decimal"],
                      "{count}/{total_paths} {decimal}")
        return out, [Record(params, payload, "ok", dict(
            params, count=payload["count"], total_paths=payload["totalPaths"],
            probability=payload["probability"], decimal=payload["decimal"]))]

    # moment
    if args.n is None or args.p is None:
        raise InputError("moment needs --n and --p")
    p = _parse_rational(args.p)
    from .moments import even_moment
    moment = even_moment(args.n, p).coeff
    payload = {"value": fraction_str(moment), "decimal": decimal15(moment)}
    out = Emitter(args.format, "compute moment",
                  ["n", "p", "value", "decimal"], "{value} {decimal}")
    return out, [Record({"n": args.n, "p": str(p)}, payload, "ok",
                        dict(payload, n=args.n, p=p))]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args) -> Output:
    if args.steps < 1 or args.steps % 2:
        raise InputError("oracle needs a positive even --steps")
    half = args.steps // 2
    from .walks import brute_force_return, return_probability
    pc = brute_force_return(args.dim, half, budget=args.budget)
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
    from .walks import WalkSpec, simulate_beta_moment, simulate_walk
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
    from .catalog import CATALOG
    if args.action == "list":
        out = Emitter(args.format, "catalog list",
                      ["name", "variant", "location", "parameter_range",
                       "erratum"],
                      "{name} [{variant}] {location}; range: {parameter_range}")
        records = []
        for entry in CATALOG.values():
            _erratum_banner(entry)
            payload = {"name": entry.name, "variant": entry.variant,
                       "location": entry.location,
                       "parameterRange": entry.parameter_range,
                       "erratum": entry.erratum}
            records.append(Record({"name": entry.name}, payload, "ok", dict(
                payload, parameter_range=entry.parameter_range,
                erratum=entry.erratum or "")))
        return out, records

    names = [args.name] if args.name != "all" else list(CATALOG)
    for name in names:
        if name not in CATALOG:
            raise InputError(f"unknown catalog entry {_quote(name)} "
                             f"(try: {', '.join(CATALOG)})")
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
        entry = CATALOG[name]
        _erratum_banner(entry)
        records.extend(record(rep, False) for rep in entry.run())
        if entry.counterexample is not None:
            records.append(record(entry.counterexample(), True))
    out.note = f"# catalog verify: {time.perf_counter() - started:.3f}s"
    return out, records


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series(args) -> Output:
    from .numeric import evaluate_series
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


class _Parser(argparse.ArgumentParser):
    """argparse, reading "-1/2" or "-1e-3" after an option as its value, as
    it reads "-1", not as an unknown option: no option here looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain", help="output record format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    vm.add_argument("--mode", choices=("exact", "float"), default="exact",
                    help="float: read decimals exactly and show the exact "
                         "verdict in doubles")
    vm.add_argument("--threads", type=_parse_int, default=1,
                    help="echoed in the output; every run uses one thread")
    _add_format(vm)
    vm.set_defaults(handler=_cmd_verify_master)

    ve = vsub.add_parser("equal-coeff",
                         help="coefficient-free symmetric form")
    ve.add_argument("--n", required=True, help="N or LO..HI")
    ve.add_argument("--k", required=True, help="N or LO..HI")
    ve.add_argument("--p", required=True)
    ve.add_argument("--threads", type=_parse_int, default=1,
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
            cp.add_argument("--n", type=_parse_int)
            cp.add_argument("--p")
        else:
            cp.add_argument("--dim", type=_parse_int)
            cp.add_argument("--steps", type=_parse_int)
            cp.add_argument("--allow-odd", action="store_true")
        _add_format(cp)
        cp.set_defaults(handler=_cmd_compute)

    oracle = sub.add_parser("oracle",
                            help="exhaustive path-enumeration cross-check")
    oracle.add_argument("--dim", type=_parse_int, required=True)
    oracle.add_argument("--steps", type=_parse_int, required=True)
    oracle.add_argument("--budget", type=_parse_int,
                        default=DEFAULT_PATH_BUDGET)
    _add_format(oracle)
    oracle.set_defaults(handler=_cmd_oracle)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo")
    ssub = simulate.add_subparsers(dest="kind", required=True)
    for kind, helptext in (("walk", "simulate lattice walks"),
                           ("beta", "sample the matching beta moment")):
        sp = ssub.add_parser(kind, help=helptext)
        sp.add_argument("--dim", type=_parse_int, required=True)
        sp.add_argument("--n", type=_parse_int, required=True,
                        help="half the walk length")
        sp.add_argument("--trials", type=_parse_int, required=True)
        sp.add_argument("--seed", type=_parse_int, default=0)
        sp.add_argument("--threads", type=_parse_int, default=1,
                        help="threads that draw the blocks; the estimate "
                             "does not depend on it (default: 1)")
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
    series.add_argument("--n", type=_parse_int, required=True)
    series.add_argument("--variant", choices=SERIES_VARIANTS, required=True)
    series.add_argument("--max-terms", type=_parse_int,
                        default=SERIES_MAX_TERMS)
    series.add_argument("--cutoff", type=_parse_float, default=1e-12)
    _add_format(series)
    series.set_defaults(handler=_cmd_series)

    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is None else list(argv))
    try:
        out, records = args.handler(args)
        # render all before printing, so a refused value leaves stdout empty
        text = "".join(map(out.emit, records))
    except InputError as exc:
        print(f"betawalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of the input
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"betawalk: internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    if out.note:
        _note(out.note)
    if any(record.status == "violated" for record in records):
        return EXIT_STATISTICAL if args.command == "simulate" else EXIT_VIOLATED
    return EXIT_OK


def entry_point() -> None:
    # A reader that closes stdout early (`| head`) ends the process the way
    # it ends `cat`, instead of a BrokenPipeError traceback on stderr.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    # Once the output is flushed the process has nothing left to do, so it
    # ends here: interpreter teardown (module finalization, a last garbage
    # collection, freeing every object) would cost 8-20 ms, and no atexit
    # hook runs.  A flush that fails takes the normal exit, which reports it.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry_point()
