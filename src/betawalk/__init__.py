"""Exact beta-moment identities and lattice walk return probabilities.

The even moments of weighted sums of centered symmetric-beta variables have
two independent exact expansions; at the arcsine shape (p = 1/2) with equal
weights they equal the return probability of the simple symmetric walk on
Z^k.  This package verifies the identity family in exact rational/sqrt(pi)
arithmetic, reproduces the walk probabilities, and cross-checks everything
against exhaustive enumeration and seeded Monte Carlo.
"""

from .catalog import CATALOG, CatalogEntry, entries, run_entry
from .compositions import count_weak_compositions, weak_compositions
from .exact import (
    HalfInt,
    PiRational,
    as_fraction,
    beta_half,
    binomial,
    factorial,
    gamma_half,
    multinomial,
    pochhammer,
)
from .moments import (
    CoefficientVector,
    IdentityReport,
    even_moment,
    lhs_master,
    odd_moment,
    rhs_master,
    verify_equal_coeff_form,
    verify_master,
)
from .numeric import (
    FloatVerification,
    SeriesEvaluation,
    evaluate_series,
    verify_master_float,
)
from .walks import (
    PathBudgetError,
    PathCount,
    SimulationResult,
    WalkSpec,
    brute_force_return,
    closed_form_1d,
    closed_form_2d,
    path_count,
    return_probability,
    return_probability_odd,
    simulate_beta_moment,
    simulate_walk,
)

__version__ = "0.1.0"
