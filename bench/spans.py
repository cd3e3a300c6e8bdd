"""In-process traced runs: spans around the public functions of each layer.

The tracer wraps each layer's public functions from outside the program.
The CLI binds library names at import (``from .moments import
verify_master``), so a wrapper replaces the function under every name in
every ``betawalk`` module that holds it.  Spans are kept in memory and
written out when the run ends.

The span stack is process-wide rather than per thread: commands run one at
a time and every wrapped function is entered from the main thread, so a
composition stream created inside a worker thread (chunked reductions) is
still counted against the span that started the work.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import threading
import time
import traceback
from collections import defaultdict

# (module, attribute, span name) of each wrapped public function
SPAN_TARGETS = [
    ("moments", "verify_master", "moments.verify_master"),
    ("moments", "verify_equal_coeff_form", "moments.verify_equal_coeff"),
    ("moments", "lhs_master", "moments.lhs"),
    ("moments", "rhs_master", "moments.rhs"),
    ("moments", "even_moment", "moments.even_moment"),
    ("walks", "path_count", "walks.path_count"),
    ("walks", "brute_force_return", "walks.brute_force"),
    ("walks", "simulate_walk", "walks.simulate_walk"),
    ("walks", "simulate_beta_moment", "walks.simulate_beta"),
    ("numeric", "verify_master_float", "numeric.float_verify"),
    ("numeric", "evaluate_series", "numeric.series"),
]
GENERATOR_TARGETS = [("compositions", "weak_compositions"),
                     ("compositions", "composition_range")]

# Per-layer metric -> unit, in the order the benchmark reports them.
LAYER_UNITS = {
    "moments.lhs_s": "s", "moments.rhs_s": "s",
    "moments.lhs_terms": "count", "moments.rhs_terms": "count",
    "moments.max_bits": "bits",
    "compositions.yielded": "count",
    "exact.beta_half_hits": "count", "exact.beta_half_misses": "count",
    "exact.gamma_half_hits": "count", "exact.gamma_half_misses": "count",
    "exact.factorial_entries": "count",
    "walks.path_count_s": "s", "walks.path_count_terms": "count",
    "cli.import_s": "s", "cli.import_numpy_s": "s", "cli.parse_s": "s",
    "cli.emit_s": "s", "cli.records": "count", "cli.stdout_bytes": "B",
    "cli.handler_self_s": "s",
    "catalog.verify_s": "s", "catalog.reports": "count",
    "walks.simulate_walk_s": "s", "walks.simulate_beta_s": "s",
    "walks.mc_trials": "count", "walks.mc_draw_bytes": "B-computed",
    "walks.workers": "count",
    "walks.brute_force_s": "s", "walks.paths_enumerated": "count",
    "numeric.float_verify_s": "s", "numeric.float_terms": "count",
    "numeric.series_s": "s", "numeric.series_terms": "count",
    "trace.overhead_s": "s",
    "baseline.lhs_master_s": "s", "baseline.path_count_s": "s",
    "baseline.brute_force_s": "s", "baseline.simulate_walk_s": "s",
}

# span name -> per-layer metric that sums its durations
DURATION_METRICS = {
    "moments.lhs": "moments.lhs_s", "moments.rhs": "moments.rhs_s",
    "walks.path_count": "walks.path_count_s",
    "cli.parse": "cli.parse_s", "cli.emit": "cli.emit_s",
    "catalog.verify": "catalog.verify_s",
    "walks.simulate_walk": "walks.simulate_walk_s",
    "walks.simulate_beta": "walks.simulate_beta_s",
    "walks.brute_force": "walks.brute_force_s",
    "numeric.float_verify": "numeric.float_verify_s",
    "numeric.series": "numeric.series_s",
}
# span name -> per-layer metric that sums the composition tuples it consumed
TERM_METRICS = {
    "moments.lhs": "moments.lhs_terms", "moments.rhs": "moments.rhs_terms",
    "walks.path_count": "walks.path_count_terms",
    "numeric.float_verify": "numeric.float_terms",
}


def _bits(value) -> int:
    coeff = getattr(value, "coeff", value)
    return max(abs(coeff.numerator).bit_length(),
               coeff.denominator.bit_length())


class Tracer:
    """Records spans (name, start, end, parent, command id) and counters."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> betawalk module
        self.spans: list[list] = []  # [name, start, end, parent, cmd]
        self.yields: dict = defaultdict(int)  # owning span index -> tuples
        self.counters: dict = defaultdict(int)
        self.stack: list[int] = []
        self.cmd = None
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._lock = threading.Lock()
        self._wrappers = self._build_wrappers()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else None, self.cmd]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn):
        def counted(*args, **kwargs):
            owner = self.stack[-1] if self.stack else None
            return self._count(fn(*args, **kwargs), owner)
        counted.__wrapped__ = fn
        return counted

    def _count(self, gen, owner):
        n = 0
        try:
            for item in gen:
                n += 1
                yield item
        finally:
            with self._lock:
                self.yields[owner] += n

    # -- per-layer counters taken from arguments and results ---------------

    def _bits_after(self, args, kwargs, result) -> None:
        self.counters["moments.max_bits"] = max(
            self.counters["moments.max_bits"], _bits(result))

    def _sim_after(self, fn, draw_bytes):
        sig = inspect.signature(fn)

        def after(args, kwargs, result) -> None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.counters["walks.mc_trials"] += a["trials"]
            self.counters["walks.workers"] = max(
                self.counters["walks.workers"], a["workers"])
            self.counters["walks.mc_draw_bytes"] += draw_bytes(a)
        return after

    def _build_wrappers(self) -> list[tuple]:
        """(original function, replacement) pairs for every target found."""
        m = self.modules
        after = {
            "moments.lhs": self._bits_after,
            "moments.rhs": self._bits_after,
            "walks.brute_force": lambda a, k, r: self._add(
                "walks.paths_enumerated", r.total_paths),
            "numeric.series": lambda a, k, r: self._add(
                "numeric.series_terms", r.terms_evaluated),
        }
        if hasattr(m["walks"], "simulate_walk"):
            # v0 draws one uint8 per step; beta draws one float64 per axis
            after["walks.simulate_walk"] = self._sim_after(
                m["walks"].simulate_walk,
                lambda a: a["trials"] * 2 * a["spec"].half_steps)
        if hasattr(m["walks"], "simulate_beta_moment"):
            after["walks.simulate_beta"] = self._sim_after(
                m["walks"].simulate_beta_moment,
                lambda a: a["trials"] * a["dim"] * 8)
        pairs = []
        for mod, attr, name in SPAN_TARGETS:
            fn = getattr(m[mod], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            pairs.append((fn, self.wrap(name, fn, after.get(name))))
        for mod, attr in GENERATOR_TARGETS:
            fn = getattr(m[mod], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            pairs.append((fn, self.wrap_generator(fn)))
        catalog = m["catalog"]
        for attr in getattr(catalog, "__all__", []):
            fn = getattr(catalog, attr, None)
            if attr.startswith("verify_") and callable(fn):
                pairs.append((fn, self.wrap(
                    "catalog.verify", fn,
                    lambda a, k, r: self._add("catalog.reports", 1))))
        cli = m["cli"]
        if hasattr(cli, "build_parser"):
            pairs.append((cli.build_parser, self._wrap_parser(cli.build_parser)))
        self._emitter = getattr(cli, "Emitter", None)
        if not hasattr(self._emitter, "emit"):
            self.missing.append("cli.Emitter.emit")
            self._emitter = None
        return pairs

    def _add(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def _wrap_parser(self, build_parser):
        def traced_build():
            with self.span("cli.parse"):
                parser = build_parser()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser
        return traced_build

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        for original, replacement in self._wrappers:
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "betawalk" and not name.startswith("betawalk."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        self._patches.append((mod, attr, original))
        if self._emitter is not None:
            original = self._emitter.emit
            self._emitter.emit = self.wrap(
                "cli.emit", original,
                lambda a, k, r: self._add("cli.records", 1))
            self._patches.append((self._emitter, "emit", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def pass_metrics(self, first_span: int) -> dict:
        """Per-layer totals of the spans recorded since ``first_span``."""
        out = defaultdict(float)
        own = self_times(self.spans)[first_span:]
        for i, (name, start, end, _, _) in enumerate(self.spans[first_span:],
                                                     first_span):
            if name in DURATION_METRICS:
                out[DURATION_METRICS[name]] += end - start
            if name in TERM_METRICS:
                out[TERM_METRICS[name]] += self.yields.get(i, 0)
            if name == "cli.main":
                out["cli.handler_self_s"] += own[i - first_span]
        out["compositions.yielded"] = sum(self.yields.values())
        return out

    def start_pass(self) -> int:
        """Clear the per-pass counters; returns the first span index."""
        self.yields.clear()
        self.counters.clear()
        return len(self.spans)


# ---------------------------------------------------------------------------
# running commands in-process
# ---------------------------------------------------------------------------


def reset_caches(exact) -> None:
    """Start each command from the state a fresh process has."""
    for name in ("gamma_half", "beta_half"):
        fn = getattr(exact, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    table = getattr(exact, "_fact_table", None)
    if isinstance(table, list):
        del table[2:]


def cache_counts(exact) -> dict:
    out = {}
    for name in ("beta_half", "gamma_half"):
        info = getattr(getattr(exact, name, None), "cache_info", None)
        if info is not None:
            ci = info()
            out[f"exact.{name}_hits"] = ci.hits
            out[f"exact.{name}_misses"] = ci.misses
    table = getattr(exact, "_fact_table", None)
    out["exact.factorial_entries"] = len(table) if isinstance(table, list) else 0
    return out


def run_in_process(cli, argv) -> tuple[int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 1)
        except Exception:  # a crash is a result to report, not to raise
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]
