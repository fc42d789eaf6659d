"""The public API is a fixed list: removing or adding a name is a
deliberate change to this file, not a side effect of a refactor."""

import importlib

import pytest

import orbifold_hurwitz

PUBLIC = [
    "BudgetExceededError",
    "CheckCase",
    "DivisibilityError",
    "HurwitzIndex",
    "MemoTable",
    "Series1",
    "Series2",
    "VerificationReport",
    "arrowed_hurwitz",
    "canonical_profile",
    "count_monodromy_tuples",
    "divided_difference",
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


def test_package_exports_exactly_the_public_names():
    assert sorted(orbifold_hurwitz.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(orbifold_hurwitz, name) is not None, name


@pytest.mark.parametrize("module", ["core", "index", "oracle", "report", "series", "verify"])
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"orbifold_hurwitz.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
