"""Independent references and the output checker.

Every command is judged against values computed here, never against the
program's own ``verified``/``passed``/``matches`` fields:

* exact moments: the Cauchy product of exponential generating functions
  over the even moments mu_i = (1/2)_i / (p + 1/2)_i, valid for any
  rational p > 0;
* closed-path counts: an integer dynamic programme over the axes, with the
  closed forms for one and two dimensions;
* simulations: |z| < 4 against the exact return probability;
* float-mode records: a record that claims ``passed=true`` while its lhs
  or rhs is off the exact moment by a relative error of order one
  (``GROSS_REL_ERROR``) is a failed operation;
* catalog records: the value each entry's two sides must take, and the
  stated-form counterexamples documented in the README.

An *operation* is one command invocation.  It fails on an unexpected exit
code, a traceback, a wrong value, or stdout that differs from an earlier
run of the same command line.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

TRACEBACK = "Traceback (most recent call last)"
Z_LIMIT = 4.0
GROSS_REL_ERROR = 0.1

# An exact value is (rational coefficient, power of sqrt(pi)); zero has
# power 0.
Exact = tuple


def _exact(coeff: Fraction, sqrt_pi_pow: int = 0) -> Exact:
    return (Fraction(coeff), sqrt_pi_pow if coeff != 0 else 0)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def even_moments(p: Fraction, n: int) -> list[Fraction]:
    """mu_i = E[U^(2i)] = (1/2)_i / (p + 1/2)_i for i = 0..n."""
    mu = [Fraction(1)]
    for i in range(n):
        mu.append(mu[-1] * (Fraction(1, 2) + i) / (p + Fraction(1, 2) + i))
    return mu


def master_moment(n: int, coeffs, p: Fraction) -> Fraction:
    """E[(sum c_s U_s)^(2n)] = (2n)! [y^n] prod_s sum_i c_s^(2i) mu_i y^i/(2i)!"""
    mu = even_moments(Fraction(p), n)
    poly = [Fraction(1)] + [Fraction(0)] * n
    for c in coeffs:
        c2 = Fraction(c) ** 2
        factor = [c2 ** i * mu[i] / math.factorial(2 * i) for i in range(n + 1)]
        poly = [sum(poly[j] * factor[i - j] for j in range(i + 1))
                for i in range(n + 1)]
    return poly[n] * math.factorial(2 * n)


@lru_cache(maxsize=None)
def closed_paths(dim: int, n: int) -> int:
    """Closed walks of length 2n on Z^dim: split the steps between the first
    axis (2m of them, C(2m, m) balanced orders) and the other axes."""
    if dim == 1:
        return math.comb(2 * n, n)
    return sum(math.comb(2 * n, 2 * m) * math.comb(2 * m, m)
               * closed_paths(dim - 1, n - m) for m in range(n + 1))


def return_prob(dim: int, n: int) -> Fraction:
    if dim == 1:
        return Fraction(math.comb(2 * n, n), 4 ** n)
    if dim == 2:
        return Fraction(math.comb(2 * n, n) ** 2, 16 ** n)
    return Fraction(closed_paths(dim, n), (2 * dim) ** (2 * n))


def _gamma(doubled: int) -> Exact:
    """Gamma(doubled/2) for a positive half-integer: (m-1)! or
    (2m)!/(4^m m!) sqrt(pi) at m + 1/2."""
    if doubled % 2 == 0:
        return _exact(Fraction(math.factorial(doubled // 2 - 1)))
    m = doubled // 2
    return _exact(Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m)), 1)


def beta_half(a2: int, b2: int) -> Exact:
    """B(a, b) at half-integers given as doubled values."""
    (ga, pa), (gb, pb), (gab, pab) = _gamma(a2), _gamma(b2), _gamma(a2 + b2)
    return _exact(ga * gb / gab, pa + pb - pab)


def _doubled(p: Fraction) -> int:
    if (2 * p).denominator != 1:
        raise ValueError(f"{p} is not a half-integer")
    return int(2 * p)


def catalog_reference(name: str, variant: str,
                      params: dict) -> tuple[Exact, Exact]:
    """(lhs, rhs) that a catalog record must show."""
    n = int(params["n"])
    if variant == "printed" and name in PRINTED_COUNTEREXAMPLES:
        return PRINTED_COUNTEREXAMPLES[name]
    if name == "convolution":
        v = _exact(Fraction(4 ** n))
    elif name == "alternating":
        v = _exact(Fraction(math.comb(2 * n, n), 4 ** n))
    elif name == "one-dim-general-p":
        p2 = _doubled(Fraction(params["p"]))
        coeff, pw = beta_half(2 * n + 1, p2)
        v = _exact(coeff / 2 ** (p2 - 1), pw)
    elif name == "two-dim-remark":
        v = _exact(return_prob(2, n))
    elif name == "three-dim-remark":
        v = _exact(return_prob(3, n))
    elif name == "k-dim-remark":
        v = _exact(return_prob(int(params["k"]), n))
    elif name == "vandermonde":
        v = _exact(Fraction(math.comb(2 * n, n)))
    elif name == "duplication":
        v = _exact(Fraction(math.comb(2 * n, n) * math.factorial(n), 4 ** n))
    else:
        raise KeyError(name)
    return v, v


# The stated forms that fail, with the values the README documents.
PRINTED_COUNTEREXAMPLES = {
    "convolution": (_exact(Fraction(2)), _exact(Fraction(4))),
    "alternating": (_exact(Fraction(-1)), _exact(Fraction(1, 2))),
    "one-dim-general-p": (_exact(Fraction(-1), 2), _exact(Fraction(1, 2), 2)),
    "two-dim-remark": (_exact(Fraction(1, 10)), _exact(Fraction(1, 4))),
    "k-dim-remark": (_exact(Fraction(17)), _exact(Fraction(2))),
}

# Entry name -> records `catalog verify` prints (declared range, plus one
# counterexample per corrected entry).
CATALOG_RECORDS = {
    "convolution": 51, "alternating": 51, "one-dim-general-p": 61,
    "two-dim-remark": 13, "three-dim-remark": 8, "k-dim-remark": 25,
    "vandermonde": 100, "duplication": 101,
}


def series_reference_terms(n: int, variant: str, count: int) -> list[float]:
    """term_k = (1/2)_k^2 Gamma(n+1/2) / Gamma(n+k+3/2) / norm_k through
    log-gamma, norm_k one of 1, k!, (k!)^2."""
    lg = math.lgamma
    base = lg(n + 0.5) - 2 * lg(0.5)
    power = {"printed": 0, "over-k-factorial": 1,
             "over-k-factorial-squared": 2}[variant]
    return [math.exp(2 * lg(k + 0.5) + base - lg(n + k + 1.5)
                     - power * lg(k + 1)) for k in range(count)]


# ---------------------------------------------------------------------------
# parsing the three output formats into records
# ---------------------------------------------------------------------------

_PI = re.compile(r"(-?\d+(?:/\d+)?)(?:\*(sqrt\(pi\)|pi(?:\^(\d+)|\^\((\d+)/2\))?))?")


def parse_exact(value) -> Exact:
    """A JSON {"coeff", "sqrtPiPow"} object or text such as 3/8*pi^2."""
    if isinstance(value, dict):
        return _exact(Fraction(value["coeff"]), int(value["sqrtPiPow"]))
    m = _PI.fullmatch(value.strip())
    if not m:
        raise ValueError(f"not an exact value: {value!r}")
    coeff, tail, pi_pow, half_pow = m.groups()
    if tail is None:
        pw = 0
    elif tail == "sqrt(pi)":
        pw = 1
    elif half_pow is not None:
        pw = int(half_pow)
    else:
        pw = 2 * int(pi_pow) if pi_pow is not None else 2
    return _exact(Fraction(coeff), pw)


def _kv(text: str) -> dict:
    return dict(part.split("=", 1) for part in text.split(" ") if "=" in part)


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if value in ("true", "false"):
        return value == "true"
    raise ValueError(f"not a boolean: {value!r}")


def parse_records(kind: str, fmt: str, stdout: str) -> list[dict]:
    """Records as dicts with the README's CSV column names."""
    lines = [ln for ln in stdout.splitlines() if ln]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    if fmt == "json":
        return [_flatten_json(kind, json.loads(ln)) for ln in lines]
    return [_parse_plain(kind, ln) for ln in lines]


_JSON_KEYS = {
    "totalPaths": "total_paths", "stdError": "std_error",
    "exactReference": "exact", "zScore": "z_score",
    "limitEstimate": "limit_estimate", "termsEvaluated": "terms_evaluated",
    "identity": "name",
}


def _flatten_json(kind: str, obj: dict) -> dict:
    rec = dict(obj.get("parameters", {}))
    for key, value in obj["payload"].items():
        rec[_JSON_KEYS.get(key, key)] = value
    if kind == "catalog-verify":
        params = dict(obj["payload"]["parameters"])
        rec["variant"] = params.pop("variant", "corrected")
        rec["parameters"] = ",".join(f"{k}={v}" for k, v in params.items())
    return rec


def _parse_plain(kind: str, line: str) -> dict:
    head, _, rest = line.partition(" ")
    if kind in ("master", "master-float", "equal-coeff", "series"):
        rec = _kv(rest)
        if kind == "master-float":
            rec["rel_diff"] = rec.pop("relDiff")
        if kind == "series":
            rec["terms_evaluated"] = rec.pop("terms")
            rec["limit_estimate"] = rec.pop("limitEstimate")
        return rec
    if kind in ("return-prob", "moment"):
        value, decimal = line.split(" ")
        key = "probability" if kind == "return-prob" else "value"
        return {key: value, "decimal": decimal}
    if kind in ("path-count", "oracle"):
        frac, tail = line.split(" ")
        count, total = frac.split("/")
        rec = {"count": count, "total_paths": total}
        if kind == "oracle":
            rec["matches"] = "true" if tail == "match" else "false"
        else:
            rec["decimal"] = tail
        return rec
    if kind == "simulate":
        rec = _kv(rest)
        rec["std_error"] = rec.pop("stdError")
        return rec
    if kind == "catalog-list":
        m = re.fullmatch(r"(\S+) \[(\w+)\] .*", line)
        return {"name": m.group(1), "variant": m.group(2)}
    if kind == "catalog-verify":
        m = re.fullmatch(r"(\S+) variant=(\S+) (\S*) lhs=(\S+) rhs=(\S+) "
                         r"verified=(\w+)", line)
        return dict(zip(("name", "variant", "parameters", "lhs", "rhs",
                         "verified"), m.groups()))
    raise ValueError(f"no plain parser for {kind}")


# ---------------------------------------------------------------------------
# judging one command's output
# ---------------------------------------------------------------------------


def _rel_err(value: float, ref: Fraction) -> float:
    if not math.isfinite(value):
        return math.inf
    if ref == 0:
        return abs(value)
    return abs((Fraction(value) - ref) / ref)


def expected_exit(cmd, records: list[dict]) -> tuple[int, ...]:
    """Exit codes the command may end with, given its own records."""
    if cmd.kind == "usage-error":
        return (2,)
    if cmd.kind == "master-float" and not all(
            str(r.get("passed")).lower() == "true" for r in records):
        # a record's own fail (or a later "inconclusive") verdict
        return (1, 3)
    return (0,)


def judge_records(cmd, records: list[dict]) -> list[str]:
    """Problems with a command's records, as short messages."""
    kind, spec = cmd.kind, cmd.spec
    problems: list[str] = []

    def want(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    if kind == "usage-error":
        want(not records, "usage error printed records")
    elif kind == "master":
        ks = spec.get("k")
        expected = [(n, k) for n in spec["n"] for k in (ks or [len(spec["coeffs"])])]
        want(len(records) == len(expected),
             f"{len(records)} records, expected {len(expected)}")
        for rec, (n, k) in zip(records, expected):
            coeffs = spec["coeffs"] if ks is None else [1] * k
            ref = _exact(master_moment(n, coeffs, spec["p"]))
            for side in ("lhs", "rhs"):
                want(parse_exact(rec[side]) == ref,
                     f"n={n} k={k} {side}={rec[side]} != {ref[0]}")
    elif kind == "equal-coeff":
        expected = [(n, k) for n in spec["n"] for k in spec["k"]]
        want(len(records) == len(expected),
             f"{len(records)} records, expected {len(expected)}")
        p2 = _doubled(spec["p"])
        bpp, bpow = beta_half(p2, p2)
        for rec, (n, k) in zip(records, expected):
            ref = _exact(master_moment(n, [1] * k, spec["p"]) * bpp ** k,
                         bpow * k)
            for side in ("lhs", "rhs"):
                want(parse_exact(rec[side]) == ref,
                     f"n={n} k={k} {side}={rec[side]} != {ref}")
    elif kind == "master-float":
        want(len(records) == len(spec["n"]),
             f"{len(records)} records, expected {len(spec['n'])}")
        for rec, n in zip(records, spec["n"]):
            if str(rec["passed"]).lower() != "true":
                continue
            ref = master_moment(n, spec["coeffs"], spec["p"])
            err = max(_rel_err(float(rec["lhs"]), ref),
                      _rel_err(float(rec["rhs"]), ref))
            want(err < GROSS_REL_ERROR,
                 f"vacuous pass n={n}: relative error {float(err):.3g} "
                 f"against the exact moment")
    elif kind in ("return-prob", "path-count", "oracle"):
        dim, steps = spec["dim"], spec["steps"]
        ref = return_prob(dim, steps // 2) if steps % 2 == 0 else Fraction(0)
        want(len(records) == 1, f"{len(records)} records, expected 1")
        for rec in records[:1]:
            if kind == "return-prob":
                want(Fraction(rec["probability"]) == ref,
                     f"probability {rec['probability']} != {ref}")
            else:
                want(int(rec["count"]) == closed_paths(dim, steps // 2)
                     and int(rec["total_paths"]) == (2 * dim) ** steps,
                     f"count {rec['count']}/{rec['total_paths']} != "
                     f"{closed_paths(dim, steps // 2)}/{(2 * dim) ** steps}")
            if kind != "oracle":
                want(rec["decimal"] == format(float(ref), ".15g"),
                     f"decimal {rec['decimal']} for {ref}")
            else:
                want(_bool(rec["matches"]), "oracle reports a mismatch")
    elif kind == "moment":
        ref = even_moments(spec["p"], spec["n"])[spec["n"]]
        want(len(records) == 1 and Fraction(records[0]["value"]) == ref,
             f"moment != {ref}")
    elif kind == "simulate":
        want(len(records) == 1, f"{len(records)} records, expected 1")
        ref = return_prob(spec["dim"], spec["n"])
        for rec in records[:1]:
            est, se = float(rec["estimate"]), float(rec["std_error"])
            z = (est - float(ref)) / se if se > 0 else (
                0.0 if est == float(ref) else math.inf)
            want(abs(z) < Z_LIMIT, f"|z| = {abs(z):.2f} against {ref}")
            want(Fraction(rec["exact"]) == ref,
                 f"reference {rec['exact']} != {ref}")
    elif kind == "catalog-list":
        want([r["name"] for r in records] == list(CATALOG_RECORDS),
             "catalog entries differ from the registered eight")
    elif kind == "catalog-verify":
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec["name"]] = counts.get(rec["name"], 0) + 1
            params = dict(kv.split("=", 1)
                          for kv in rec["parameters"].split(",") if kv)
            lhs, rhs = catalog_reference(rec["name"], rec["variant"], params)
            got = (parse_exact(rec["lhs"]), parse_exact(rec["rhs"]))
            want(got == (lhs, rhs),
                 f"{rec['name']} {rec['variant']} {rec['parameters']}: "
                 f"{rec['lhs']} / {rec['rhs']}")
        names = (list(CATALOG_RECORDS) if spec["name"] == "all"
                 else [spec["name"]])
        want(counts == {nm: CATALOG_RECORDS[nm] for nm in names},
             f"record counts {counts}")
    elif kind == "series":
        problems += _judge_series(spec, records)
    else:
        raise ValueError(f"no checker for {kind}")
    return problems


@lru_cache(maxsize=16)
def _series_reference(n: int, variant: str, count: int) -> tuple:
    terms = series_reference_terms(n, variant, count)
    return math.fsum(terms), tuple(terms[-16:]), terms[0]


def _judge_series(spec: dict, records: list[dict]) -> list[str]:
    if len(records) != 1:
        return [f"{len(records)} records, expected 1"]
    rec = records[0]
    n = spec["n"]
    count = int(rec["terms_evaluated"])
    if not 1 <= count <= spec["max_terms"]:
        return [f"terms_evaluated {count}"]
    total, tail, first = _series_reference(n, spec["variant"], count)
    problems = []
    target = float(Fraction(math.comb(2 * n, n) ** 2, 16 ** n))
    if float(rec["target"]) != target:
        problems.append(f"target {rec['target']} != {target}")
    estimate = float(rec["limit_estimate"])
    if abs(estimate * math.pi - total) > 1e-8 * abs(total):
        problems.append(f"limit estimate {estimate} != {total / math.pi}")
    converged, diverged = _bool(rec["converged"]), _bool(rec["diverged"])
    if converged and not (tail[-1] < spec["cutoff"]
                          and tail[-2] < spec["cutoff"]):
        problems.append("converged, but the last terms exceed the cutoff")
    if diverged and not (all(b > a for a, b in zip(tail, tail[1:]))
                         and tail[-1] > max(1.0, first)):
        problems.append("diverged, but the terms are not growing")
    if not converged and not diverged and count != spec["max_terms"]:
        problems.append("stopped early with neither verdict")
    return problems


# ---------------------------------------------------------------------------
# counting failed operations
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    """One run of one command: what the benchmark observed."""

    index: int  # position of the command in the workload
    exit_code: int
    stdout: bytes
    stderr: str


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Checker:
    """Judges invocations; content is judged once per distinct stdout."""

    def __init__(self, commands):
        self.commands = commands
        self.first_digest: dict[int, str] = {}
        self._verdicts: dict[tuple[int, str], tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def _content(self, index: int, stdout: bytes) -> tuple:
        key = (index, digest(stdout))
        if key not in self._verdicts:
            cmd = self.commands[index]
            try:
                records = parse_records(cmd.kind, cmd.fmt,
                                        stdout.decode("utf-8"))
                self._verdicts[key] = (judge_records(cmd, records),
                                       expected_exit(cmd, records))
            except (ValueError, KeyError, TypeError, AttributeError,
                    IndexError) as exc:
                self._verdicts[key] = (
                    [f"unparseable output: {type(exc).__name__}: {exc}"],
                    expected_exit(cmd, []))
        return self._verdicts[key]

    def add(self, inv: Invocation) -> list[str]:
        """Judge one invocation; returns its problems (empty when fine)."""
        self.attempted += 1
        problems = []
        if TRACEBACK in inv.stderr:
            problems.append("traceback on stderr")
        content_problems, exits = self._content(inv.index, inv.stdout)
        problems += content_problems
        if inv.exit_code not in exits:
            problems.append(f"exit code {inv.exit_code}, expected "
                            f"{' or '.join(map(str, exits))}")
        d = digest(inv.stdout)
        first = self.first_digest.setdefault(inv.index, d)
        if d != first:
            problems.append("stdout differs from an earlier run")
        if problems:
            self.failed += 1
            self.failures.append({"command": self.commands[inv.index].text,
                                  "problems": problems[:5]})
        return problems
