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

Each command is one row of ``COMMANDS``, from which the parser, the
handler and the emitter are read.

The CLI turns text into values and checks only what that needs: the
number syntax, which options go together, and odd walk lengths; every
range, sign and shape rule belongs to the library.  The parser sets each
option's default, ``--threads``' 1 among them.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import signal
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

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


def _note(message: str) -> None:
    """One stderr line; a failed write is dropped, and the exit code stands."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


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


def _cmd_verify_master(args) -> tuple[list[Record], str]:
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
    return records, (f"{time.perf_counter() - started:.3f}s, "
                     f"threads={threads}")


def _cmd_verify_equal_coeff(args) -> tuple[list[Record], str]:
    threads = _threads(args)
    p = _parse_rational(args.p)
    from .moments import verify_equal_coeff_form
    started = time.perf_counter()
    records = []
    for n in _parse_range(args.n):
        for k in _parse_range(args.k):
            rep = verify_equal_coeff_form(n, k, p)
            params = {"n": n, "k": k, "p": str(p), "threads": threads}
            records.append(Record(params, rep, _status(rep.verified), dict(
                params, lhs=rep.lhs, rhs=rep.rhs,
                verified=_bool(rep.verified))))
    return records, (f"{time.perf_counter() - started:.3f}s, "
                     f"threads={threads}")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _even_steps(args) -> tuple[int, bool]:
    """Returns (half_steps, odd_shortcut) of a walk's --dim and --steps,
    which must both be given; odd steps need --allow-odd."""
    if args.dim is None or args.steps is None:
        raise InputError(f"{args.what} needs --dim and --steps")
    if args.steps % 2:
        if not args.allow_odd:
            raise InputError(
                f"steps={brief(args.steps)} is odd (parity forces "
                f"probability 0); pass --allow-odd to print the exact 0")
        return args.steps, True
    return args.steps // 2, False


def _cmd_return_prob(args) -> tuple[list[Record], str]:
    half, odd = _even_steps(args)
    from .walks import return_probability, return_probability_odd
    value = (return_probability_odd(args.dim, args.steps) if odd
             else return_probability(args.dim, half))
    params = {"dim": args.dim, "steps": args.steps}
    payload = {"probability": fraction_str(value), "decimal": decimal15(value)}
    return [Record(params, payload, "ok", dict(params, **payload))], ""


def _cmd_path_count(args) -> tuple[list[Record], str]:
    half, odd = _even_steps(args)
    from .walks import path_count, path_count_odd
    pc = (path_count_odd(args.dim, args.steps) if odd
          else path_count(args.dim, half))
    params = {"dim": args.dim, "steps": args.steps}
    payload = pc.to_json_obj()  # every integer is rendered here
    return [Record(params, payload, "ok", dict(
        params, **payload, total_paths=payload["totalPaths"]))], ""


def _cmd_moment(args) -> tuple[list[Record], str]:
    if args.n is None or args.p is None:
        raise InputError("moment needs --n and --p")
    p = _parse_rational(args.p)
    from .moments import even_moment
    moment = even_moment(args.n, p).coeff
    payload = {"value": fraction_str(moment), "decimal": decimal15(moment)}
    return [Record({"n": args.n, "p": str(p)}, payload, "ok",
                   dict(payload, n=args.n, p=p))], ""


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cmd_oracle(args) -> tuple[list[Record], str]:
    if args.steps < 1 or args.steps % 2:
        raise InputError("oracle needs a positive even --steps")
    half = args.steps // 2
    from .walks import brute_force_return, return_probability
    pc = brute_force_return(args.dim, half, budget=args.budget)
    expected = return_probability(args.dim, half)
    matches = pc.probability == expected
    params = {"dim": args.dim, "steps": args.steps, "budget": args.budget}
    payload = dict(pc.to_json_obj(), expected=fraction_str(expected),
                   matches=matches)
    row = dict(params, count=pc.count, total_paths=pc.total_paths,
               probability=fraction_str(pc.probability),
               expected=fraction_str(expected), matches=_bool(matches),
               match="match" if matches else "MISMATCH")
    return [Record(params, payload, _status(matches), row)], ""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> tuple[list[Record], str]:
    workers = _threads(args)
    from .walks import WalkSpec, simulate_beta_moment, simulate_walk
    if args.kind == "walk":
        result = simulate_walk(WalkSpec(args.dim, args.n), args.trials,
                               args.seed, workers=workers)
    else:
        result = simulate_beta_moment(args.dim, args.n, args.trials,
                                      args.seed, workers=workers)
    params = {"dim": args.dim, "n": args.n, "trials": args.trials,
              "seed": args.seed, "workers": workers}
    row = dict(params, kind=args.kind,
               hits="" if result.hits is None else result.hits,
               estimate=result.estimate, std_error=result.std_error,
               exact=fraction_str(result.exact_reference),
               z_score=result.z_score)
    ok = abs(result.z_score) < Z_LIMIT
    return [Record(params, result, _status(ok), row)], ""


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _cmd_catalog_list(args) -> tuple[list[Record], str]:
    from .catalog import CATALOG
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
    return records, ""


def _cmd_catalog_verify(args) -> tuple[list[Record], str]:
    from .catalog import CATALOG
    names = [args.name] if args.name != "all" else list(CATALOG)
    for name in names:
        if name not in CATALOG:
            raise InputError(f"unknown catalog entry {_quote(name)} "
                             f"(try: {', '.join(CATALOG)})")
    started = time.perf_counter()
    records = []

    def record(rep, counterexample: bool) -> Record:
        # a counterexample is expected to fail; its record is still ok
        shown = {k: v for k, v in rep.parameters.items() if k != "variant"}
        return Record(dict(rep.parameters), rep,
                      _status(rep.verified or counterexample),
                      {"name": rep.identity_name,
                       "variant": rep.parameters["variant"],
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
    return records, f"{time.perf_counter() - started:.3f}s"


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _cmd_series(args) -> tuple[list[Record], str]:
    from .numeric import evaluate_series
    evaluation = evaluate_series(args.n, args.variant,
                                 max_terms=args.max_terms,
                                 cutoff=args.cutoff)
    params = {"n": args.n, "variant": args.variant,
              "maxTerms": args.max_terms, "cutoff": args.cutoff}
    row = dict(params, terms_evaluated=evaluation.terms_evaluated,
               converged=_bool(evaluation.converged),
               diverged=_bool(evaluation.diverged),
               limit_estimate=evaluation.limit_estimate,
               target=evaluation.target, last_term=evaluation.terms[-1])
    return [Record(params, evaluation, "ok", row)], ""


# ---------------------------------------------------------------------------
# the command table and its parser
# ---------------------------------------------------------------------------


class _Command(NamedTuple):
    """One row of ``COMMANDS``."""

    help: str
    handler: Callable  # args -> (records, elapsed-time note or "")
    options: dict  # option name -> argparse keyword arguments
    output: tuple[list[str], str]  # the CSV columns and the plain template


# each group word's argparse dest, which its "required" message names
_GROUPS = {"verify": ("target", "run exact or float verification"),
           "compute": ("what", "exact values"),
           "simulate": ("kind", "seeded Monte Carlo"),
           "catalog": ("action", "identity registry")}

_THREADS = {"type": _parse_int, "default": 1,
            "help": "echoed in the output; every run uses one thread"}
_WALK = {"--dim": {"type": _parse_int}, "--steps": {"type": _parse_int},
         "--allow-odd": {"action": "store_true"}}
_SIMULATE = {"--dim": {"type": _parse_int, "required": True},
             "--n": {"type": _parse_int, "required": True,
                     "help": "half the walk length"},
             "--trials": {"type": _parse_int, "required": True},
             "--seed": {"type": _parse_int, "default": 0},
             "--threads": _THREADS}
_SIMULATE_OUTPUT = (["kind", "dim", "n", "trials", "seed", "workers", "hits",
                     "estimate", "std_error", "exact", "z_score"],
                    "{kind} dim={dim} n={n} trials={trials} seed={seed} "
                    "workers={workers} hits={hits} estimate={estimate} "
                    "stdError={std_error} exact={exact} z={z_score}")
# the one output an option chooses rather than the command: `verify
# master --mode float`
_MASTER_FLOAT = (["n", "k", "p", "coeffs", "mode", "lhs", "rhs", "rel_diff",
                  "passed"],
                 "master-float n={n} k={k} p={p} coeffs={coeffs} "
                 "lhs={lhs} rhs={rhs} relDiff={rel_diff} passed={passed}")

COMMANDS = {
    "verify master": _Command(
        "the two-expansion moment identity", _cmd_verify_master,
        {"--n": {"required": True, "help": "N or LO..HI"},
         "--coeffs": {"help": "comma-separated weights, e.g. 1/3,1/3"},
         "--k": {"help": "dimension range (unit weights), e.g. 1..4"},
         "--p": {"required": True,
                 "help": "beta shape (a/b; decimal in float mode)"},
         "--mode": {"choices": ("exact", "float"), "default": "exact",
                    "help": "float: read decimals exactly and show the "
                            "exact verdict in doubles"},
         "--threads": _THREADS},
        (["n", "k", "p", "coeffs", "mode", "lhs", "rhs", "verified"],
         "master n={n} k={k} p={p} coeffs={coeffs} lhs={lhs} rhs={rhs} "
         "verified={verified}")),
    "verify equal-coeff": _Command(
        "coefficient-free symmetric form", _cmd_verify_equal_coeff,
        {"--n": {"required": True, "help": "N or LO..HI"},
         "--k": {"required": True, "help": "N or LO..HI"},
         "--p": {"required": True},
         "--threads": dict(_THREADS, help="echoed in the output; exact "
                                          "runs use one thread")},
        (["n", "k", "p", "lhs", "rhs", "verified"],
         "equal-coeff n={n} k={k} p={p} lhs={lhs} rhs={rhs} "
         "verified={verified}")),
    "compute return-prob": _Command(
        "exact return probability", _cmd_return_prob, _WALK,
        (["dim", "steps", "probability", "decimal"],
         "{probability} {decimal}")),
    "compute path-count": _Command(
        "closed-path count", _cmd_path_count, _WALK,
        (["dim", "steps", "count", "total_paths", "probability", "decimal"],
         "{count}/{total_paths} {decimal}")),
    "compute moment": _Command(
        "even moment of the centered beta", _cmd_moment,
        {"--n": {"type": _parse_int}, "--p": {}},
        (["n", "p", "value", "decimal"], "{value} {decimal}")),
    "oracle": _Command(
        "exhaustive path-enumeration cross-check", _cmd_oracle,
        {"--dim": {"type": _parse_int, "required": True},
         "--steps": {"type": _parse_int, "required": True},
         "--budget": {"type": _parse_int, "default": DEFAULT_PATH_BUDGET}},
        (["dim", "steps", "count", "total_paths", "probability", "expected",
          "matches"], "{count}/{total_paths} {match}")),
    "simulate walk": _Command("simulate lattice walks", _cmd_simulate,
                              _SIMULATE, _SIMULATE_OUTPUT),
    "simulate beta": _Command("sample the matching beta moment",
                              _cmd_simulate, _SIMULATE, _SIMULATE_OUTPUT),
    "catalog list": _Command(
        "list entries and errata", _cmd_catalog_list, {},
        (["name", "variant", "location", "parameter_range", "erratum"],
         "{name} [{variant}] {location}; range: {parameter_range}")),
    "catalog verify": _Command(
        "verify entries over their ranges", _cmd_catalog_verify,
        {"name": {"nargs": "?", "default": "all"}},
        (["name", "variant", "parameters", "lhs", "rhs", "verified"],
         "{name} variant={variant} {parameters} lhs={lhs} rhs={rhs} "
         "verified={verified}")),
    "series": _Command(
        "partial-sum diagnostics for the central-binomial ratio series",
        _cmd_series,
        {"--n": {"type": _parse_int, "required": True},
         "--variant": {"choices": SERIES_VARIANTS, "required": True},
         "--max-terms": {"type": _parse_int, "default": SERIES_MAX_TERMS},
         "--cutoff": {"type": _parse_float, "default": 1e-12}},
        (["n", "variant", "terms_evaluated", "converged", "diverged",
          "limit_estimate", "target", "last_term"],
         "series n={n} variant={variant} terms={terms_evaluated} "
         "converged={converged} diverged={diverged} "
         "limitEstimate={limit_estimate} target={target}")),
}


class _Parser(argparse.ArgumentParser):
    """argparse, reading "-1/2" or "-1e-3" after an option as its value, as
    it reads "-1", not as an unknown option: no option here looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every row of ``COMMANDS``, which sets ``words``."""
    parser = _Parser(
        prog="betawalk",
        description=("Exact verification of beta-moment identities and "
                     "lattice walk return probabilities."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {"": sub}
    for words, command in COMMANDS.items():
        group, _, name = words.rpartition(" ")
        if group not in groups:
            dest, helptext = _GROUPS[group]
            groups[group] = sub.add_parser(group, help=helptext) \
                .add_subparsers(dest=dest, required=True)
        cp = groups[group].add_parser(name, help=command.help)
        for option, kwargs in command.options.items():
            cp.add_argument(option, **kwargs)
        cp.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain", help="output record format")
        cp.set_defaults(words=words)
    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is None else list(argv))
    command = COMMANDS[args.words]
    output = (_MASTER_FLOAT if getattr(args, "mode", "") == "float"
              else command.output)
    out = Emitter(args.format, args.words, *output)
    try:
        records, note = command.handler(args)
        # render all before printing, so a refused value leaves stdout empty
        text = "".join(map(out.emit, records))
        # a full disk fails the write or the flush, whatever the buffering
        sys.stdout.write(text)
        sys.stdout.flush()
    except InputError as exc:
        _note(f"betawalk: error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of the input
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        _note(f"betawalk: internal error: {message}")
        return EXIT_INTERNAL
    if note:
        _note(f"# {args.words}: {note}")
    if any(record.status == "violated" for record in records):
        return EXIT_STATISTICAL if args.command == "simulate" else EXIT_VIOLATED
    return EXIT_OK


def entry_point() -> None:
    # A reader that closes stdout early (`| head`) ends the process the way
    # it ends `cat`, instead of a BrokenPipeError traceback on stderr.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # No command makes a BLAS call, yet numpy's OpenBLAS starts a pool of
    # worker threads at import unless told not to; a caller's value is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # The process is short and builds no reference cycle, and it ends in
    # os._exit, so the cyclic collector would only pay for numpy's imports.
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:  # argparse has printed --help or a usage error
        code = exc.code
    # main has written and flushed its records, so the process has nothing
    # left to do and ends here: interpreter teardown (module finalization,
    # a last garbage collection, freeing every object) would cost 8-20 ms,
    # and no atexit hook runs.  A message that cannot be written keeps the
    # code, as argparse's own messages do.
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entry_point()
