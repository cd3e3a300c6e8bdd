"""Exact beta-moment identities and lattice walk return probabilities.

The even moments of weighted sums of centered symmetric-beta variables have
two independent exact expansions; at the arcsine shape (p = 1/2) with equal
weights they equal the return probability of the simple symmetric walk on
Z^k.  This package verifies the identity family in exact rational/sqrt(pi)
arithmetic, reproduces the walk probabilities, and cross-checks everything
against exhaustive enumeration and seeded Monte Carlo.

The public names below load their submodule on first access (PEP 562), so
importing the package, or one command of the CLI, pays only for the layers
it uses.
"""

from importlib import import_module

# submodule -> the names it exports at package level
_EXPORTS = {
    "catalog": ("CATALOG", "CatalogEntry"),
    "exact": ("PiRational", "as_fraction", "beta_half", "gamma_half"),
    "moments": ("IdentityReport", "even_moment", "verify_equal_coeff_form",
                "verify_master"),
    "numeric": ("SeriesEvaluation", "evaluate_series"),
    "walks": ("PathCount", "SimulationResult", "WalkSpec",
              "brute_force_return", "closed_form_2d", "path_count",
              "path_count_odd", "return_probability", "return_probability_odd",
              "simulate_beta_moment", "simulate_walk"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "render")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
