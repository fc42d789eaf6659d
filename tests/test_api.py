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


def test_value_classes_compare_hash_and_freeze_by_fields():
    # plain classes with the semantics of the dataclasses they replaced
    from orbifold_hurwitz import CheckCase, HurwitzIndex, VerificationReport

    idx = HurwitzIndex(2, 1, [3, 1])
    assert repr(idx) == "HurwitzIndex(r=2, g=1, mu=(3, 1))"
    assert idx == HurwitzIndex(2, 1, (3, 1)) and idx != HurwitzIndex(2, 1, (1, 3))
    assert hash(idx) == hash((2, 1, (3, 1)))
    case = CheckCase("d=1", "1", "1", True)
    assert repr(case) == "CheckCase(description='d=1', expected='1', actual='1', ok=True)"
    assert case == CheckCase("d=1", "1", "1", True) and len({case, case}) == 1
    for value, field in ((idx, "r"), (idx, "mu"), (case, "ok")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    report = VerificationReport("cayley")
    report.check("d=1", 1, 1)
    assert report == VerificationReport("cayley", [case])
    assert repr(report) == f"VerificationReport(suite='cayley', cases=[{case!r}])"
    assert VerificationReport("cayley").cases == []
    with pytest.raises(TypeError):
        hash(report)


def test_report_fields_are_fixed_but_its_cases_grow():
    from orbifold_hurwitz import VerificationReport

    report = VerificationReport("cayley")
    for field in ("suite", "cases"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(report, field, None)
    assert report.check("d=1", 1, 1) and len(report.cases) == 1
