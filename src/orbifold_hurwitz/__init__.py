"""Exact simple and orbifold Hurwitz numbers.

The package computes the counts by an edge-contraction recursion in exact
rational arithmetic, derives the mirror data (the generalized Lambert
curve x^r = y exp(-r y) and the genus-0 one- and two-point generating
functions) as truncated series, and cross-validates everything against
closed formulas and an independent symmetric-group monodromy enumeration.
"""

from .core import (
    MemoTable,
    arrowed_hurwitz,
    jpt_h01,
    jpt_h02,
    orbifold_hurwitz,
    partitions,
    tree_number,
)
from .index import (
    BudgetExceededError,
    DivisibilityError,
    HurwitzIndex,
    canonical_profile,
)
from .oracle import (
    PermutationTuple,
    count_monodromy_tuples,
    enumerate_monodromy_tuples,
    raw_tuple_count,
)
from .report import CheckCase, VerificationReport
from .series import (
    Series1,
    Series2,
    divided_difference,
    f01_closed_in_z,
    f01_from_counts,
    f01_in_x,
    f02_closed_in_z,
    f02_from_counts,
    f02_pde_residual,
    lagrange_invert,
    lambert_functional_residual,
    spectral_curve_y_of_x,
    spectral_ode_residual,
    x_of_z,
)
from .verify import (
    verify_against_oracle,
    verify_cayley,
    verify_f01,
    verify_f02,
    verify_f02_pde,
    verify_jpt,
    verify_r_scaling,
    verify_spectral_ode,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CheckCase",
    "DivisibilityError",
    "HurwitzIndex",
    "MemoTable",
    "PermutationTuple",
    "Series1",
    "Series2",
    "VerificationReport",
    "arrowed_hurwitz",
    "canonical_profile",
    "count_monodromy_tuples",
    "divided_difference",
    "enumerate_monodromy_tuples",
    "f01_closed_in_z",
    "f01_from_counts",
    "f01_in_x",
    "f02_closed_in_z",
    "f02_from_counts",
    "f02_pde_residual",
    "jpt_h01",
    "jpt_h02",
    "lagrange_invert",
    "lambert_functional_residual",
    "orbifold_hurwitz",
    "partitions",
    "raw_tuple_count",
    "spectral_curve_y_of_x",
    "spectral_ode_residual",
    "tree_number",
    "verify_against_oracle",
    "verify_cayley",
    "verify_f01",
    "verify_f02",
    "verify_f02_pde",
    "verify_jpt",
    "verify_r_scaling",
    "verify_spectral_ode",
    "x_of_z",
]
