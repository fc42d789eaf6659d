"""Series engine, Lagrange inversion, the curve, and the free energies."""

import inspect
import random
import re
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbifold_hurwitz.series as series_module
from orbifold_hurwitz import (
    BudgetExceededError,
    HurwitzIndex,
    MemoTable,
    Series1,
    Series2,
    arrowed_hurwitz,
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
    verify_f01,
    verify_f02,
    verify_f02_pde,
    verify_jpt,
    verify_spectral_ode,
    x_of_z,
)

F = Fraction


def series(coeffs, order=None, var="t"):
    return Series1(coeffs, order, var)


# ---------------------------------------------------------------------------
# engine algebra
# ---------------------------------------------------------------------------


def test_log_of_geometric_series_is_mercator():
    geometric = series([1, -1], order=4).inverse()
    assert geometric.log().coefficients == (0, 1, F(1, 2), F(1, 3), F(1, 4))


def test_exp_times_exp_of_negative_is_one():
    t = Series1.identity(6)
    product = t.exp() * (-t).exp()
    assert product == Series1.one(6)


def test_divided_difference_of_square():
    dd = divided_difference(series([0, 0, 1], order=2, var="z"))
    assert dict(dd.terms()) == {(1, 0): 1, (0, 1): 1}


def test_divided_difference_general_coefficients():
    f = series([5, 7, 11, 13], order=3, var="z")
    dd = divided_difference(f)
    # (i, j) entry is the coefficient of z^(i+j+1)
    assert dd.coefficient(0, 0) == 7
    assert dd.coefficient(1, 1) == 13
    assert dd.coefficient(2, 0) == 13
    assert dd.is_symmetric()


def test_division_by_zero_constant_term_rejected():
    with pytest.raises(ZeroDivisionError):
        series([0, 1], order=3).inverse()


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series([2, 1], order=3).log()


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series([1, 1], order=3).exp()


def test_compose_requires_zero_inner_constant_term():
    with pytest.raises(ValueError):
        series([1, 1], order=3).compose(series([1, 1], order=3))


def test_compose_order_bookkeeping():
    f = series([0, 1, 1], order=2)
    inner = Series1.monomial(1, 3, 9, "u")  # valuation 3, order 9
    composed = f.compose(inner)
    # min(f.order * val(inner), inner.order) = min(6, 9)
    assert composed.order == 6
    assert composed.coefficient(3) == 1
    assert composed.coefficient(6) == 1


def test_binary_operations_take_minimum_order():
    a = series([1, 2, 3], order=2)
    b = series([1, 1, 1, 1], order=3)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        series([1], order=2, var="x") + series([1], order=2, var="z")


def test_series_round_trips_inverse():
    f = series([3, 1, F(1, 2), 4], order=6)
    assert f * f.inverse() == Series1.one(6)


def test_euler_operator():
    f = series([5, 1, 2, 3], order=3)
    assert f.euler().coefficients == (0, 1, 4, 9)
    assert f.euler().order == f.order


def test_coefficient_access_beyond_order_raises():
    with pytest.raises(IndexError):
        series([1], order=2).coefficient(3)
    with pytest.raises(IndexError):
        Series2.zero(3).coefficient(2, 2)


def test_bivariate_ring_and_inverse():
    a = Series2({(0, 0): 1, (1, 0): 2, (0, 1): -1, (1, 1): 3}, 4)
    assert a * a.inverse() == Series2({(0, 0): 1}, 4)
    assert (a - a).is_zero()
    assert a.euler().coefficient(1, 1) == 6


def test_bivariate_restriction_and_transpose():
    a = Series2({(2, 0): 5, (1, 1): 7}, 3)
    assert a.at_z2_zero().coefficients == (0, 0, 5, 0)
    assert a.at_z1_zero().is_zero()
    assert a.transposed().coefficient(1, 1) == 7
    assert a.transposed().coefficient(0, 2) == 5


# ---------------------------------------------------------------------------
# Lagrange inversion
# ---------------------------------------------------------------------------


def test_lagrange_invert_exponential():
    f = series([F(1, 1), 1, F(1, 2), F(1, 6)], order=3, var="y")
    y = lagrange_invert(f, 4)
    assert y.coefficients == (0, 1, 1, F(3, 2), F(8, 3))


def test_lagrange_invert_identity():
    y = lagrange_invert(Series1.one(6, "y"), 5)
    assert y == Series1([0, 1], order=5, var="x")


def _revert_by_fixpoint(f_coeffs, order):
    """Independent reversion oracle: solve y = x f(y) by iteration."""
    f = Series1(f_coeffs, order=order, var="y")
    y = Series1.zero(order, "x")
    x = Series1.identity(order, "x")
    for _ in range(order + 1):
        y = x * f.compose(y)
    return y


def test_lagrange_invert_matches_fixpoint_reversion_catalan():
    # x = y (1 - y)  <=>  y = x / (1 - y); coefficients are the Catalan numbers
    f_coeffs = [1] * 5  # 1/(1 - y) through y^4
    expected = _revert_by_fixpoint(f_coeffs, 5)
    assert expected.coefficients == (0, 1, 1, 2, 5, 14)
    assert lagrange_invert(series(f_coeffs, order=4, var="y"), 5) == expected


def test_lagrange_invert_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        lagrange_invert(series([0, 1], order=3, var="y"), 3)


def test_lagrange_invert_requires_enough_coefficients():
    with pytest.raises(ValueError):
        lagrange_invert(series([1, 1], order=1, var="y"), 5)


def test_lagrange_round_trip_random_polynomials():
    rng = random.Random(997)
    order = 8
    for _ in range(20):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        if coeffs[0] == 0:
            coeffs[0] = F(1, 2)
        f = Series1(coeffs, order=order, var="y")
        y = lagrange_invert(f, order)
        phi = Series1.identity(order, "y") * f.inverse()  # t / f(t)
        assert y.compose(phi) == Series1.identity(order, "y")


# ---------------------------------------------------------------------------
# the curve
# ---------------------------------------------------------------------------


def test_curve_series_r1():
    y = spectral_curve_y_of_x(1, 4)
    assert y.coefficients == (0, 1, 1, F(3, 2), F(8, 3))


def test_curve_series_r2():
    y = spectral_curve_y_of_x(2, 6)
    assert y.coefficients == (0, 0, 1, 0, 2, 0, 6)
    assert y.coefficient(3) == 0


def test_curve_satisfies_functional_equation():
    for r in (1, 2, 3):
        assert lambert_functional_residual(r, spectral_curve_y_of_x(r, 12)).is_zero()


def test_curve_satisfies_first_order_ode():
    for r in (1, 2, 3):
        assert spectral_ode_residual(r, spectral_curve_y_of_x(r, 12)).is_zero()
    assert verify_spectral_ode(1, 20).passed
    assert verify_spectral_ode(2, 20).passed
    assert verify_spectral_ode(3, 12).passed


def test_curve_coefficients_match_counts():
    # the x^d coefficient of the curve series is the one-part count
    memo = MemoTable()
    for r in (1, 2, 3):
        y = spectral_curve_y_of_x(r, 12)
        for d in range(1, 13):
            assert y.coefficient(d) == arrowed_hurwitz(HurwitzIndex(r, 0, (d,)), memo)


def lagrange_curve(r, order):
    """The curve by Lagrange inversion of w = y / exp(r y) in w = x^r."""
    k_max = order // r
    exp_ry = Series1(
        [F(r**k, factorial(k)) for k in range(k_max)], max(k_max - 1, 0), "y"
    )
    in_w = lagrange_invert(exp_ry, k_max)
    coeffs = [F(0)] * (order + 1)
    for k in range(1, k_max + 1):
        coeffs[r * k] = in_w.coefficient(k)
    return Series1(coeffs, order, "x")


@pytest.mark.parametrize("r", [1, 2, 3])
def test_curve_formula_matches_lagrange_inversion(r):
    for order in range(r, 40 * r + 1):
        assert spectral_curve_y_of_x(r, order) == lagrange_curve(r, order)


def test_x_of_z_expansions():
    assert x_of_z(2, 5).coefficients == (0, 1, 0, -1, 0, F(1, 2))
    assert x_of_z(1, 3).coefficients == (0, 1, -1, F(1, 2))
    for r in (1, 2, 5):
        assert x_of_z(r, 6).coefficient(1) == 1


def test_w01_coefficient_dump():
    # ``series --which w01`` prints the non-zero curve coefficients
    def nonzero(r, order):
        y = spectral_curve_y_of_x(r, order)
        return [(d, c) for d, c in enumerate(y.coefficients) if c]

    assert nonzero(1, 3) == [(1, 1), (2, 1), (3, F(3, 2))]
    assert nonzero(2, 4) == [(2, 1), (4, 2)]
    assert all(d % 2 == 0 for d, _ in nonzero(2, 10))


# ---------------------------------------------------------------------------
# free energies
# ---------------------------------------------------------------------------


def test_f01_closed_forms():
    assert f01_closed_in_z(1, 8).coefficients[:3] == (0, 1, F(-1, 2))
    f = f01_closed_in_z(2, 10)
    assert f.coefficient(2) == F(1, 2)
    assert f.coefficient(4) == F(-1, 2)
    assert f.coefficient(0) == 0


def test_f01_counts_match_closed_form():
    for r, order in ((1, 8), (2, 10), (3, 9)):
        assert f01_from_counts(r, order) == f01_closed_in_z(r, order)
    assert verify_f01(1, 12).passed
    assert verify_f01(2, 12).passed


def test_f01_euler_derivative_recovers_curve():
    for r in (1, 2):
        assert f01_in_x(r, 10).euler() == spectral_curve_y_of_x(r, 10)


def test_f02_closed_low_order_coefficient():
    f02 = f02_closed_in_z(1, 4)
    assert f02.coefficient(1, 1) == F(1, 2)
    assert f02.coefficient(0, 0) == 0


def test_f02_pure_powers_vanish():
    for r in (1, 2, 3):
        f02 = f02_closed_in_z(r, 8)
        assert f02.at_z2_zero().is_zero()
        assert f02.at_z1_zero().is_zero()


def test_f02_symmetry():
    for r in (1, 2):
        assert f02_closed_in_z(r, 8).is_symmetric()


def test_f02_counts_match_closed_form():
    for r in (1, 2, 3):
        assert f02_from_counts(r, 8) == f02_closed_in_z(r, 8)
    assert verify_f02(1, 10).passed


def test_f02_counts_low_degree_zero_for_r2():
    f02 = f02_from_counts(2, 6)
    assert f02.coefficient(1, 0) == 0
    assert f02.coefficient(0, 1) == 0
    assert f02.coefficient(1, 1) != 0


def test_f02_satisfies_pde():
    for r in (1, 2, 3):
        assert f02_pde_residual(r, 8).is_zero()
    assert verify_f02_pde(1, 10).passed
    assert verify_f02_pde(2, 10).passed


# ---------------------------------------------------------------------------
# the series layer holds itself to SERIES_BUDGET
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda memo: spectral_curve_y_of_x(1, 2000),
        lambda memo: spectral_curve_y_of_x(10**10, 10**10),
        lambda memo: f01_closed_in_z(1, 10**7),
        lambda memo: f01_from_counts(1, 400, memo),
        lambda memo: f02_closed_in_z(1, 400),
        lambda memo: f02_from_counts(1, 400, memo),
        lambda memo: f02_pde_residual(1, 400),
        lambda memo: verify_spectral_ode(1, 400),
        lambda memo: verify_f01(1, 400, memo),
        lambda memo: verify_f02(1, 400, memo),
    ],
)
def test_series_over_budget_refused_at_entry(build):
    memo = MemoTable()
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="series budget"):
        build(memo)
    assert time.perf_counter() - started < 1
    assert len(memo) == 0


# the entries the series command builds are held to it in test_cli.py
@pytest.mark.parametrize(
    "build, r, order, label, least",
    [
        ("f01_from_counts", 2, 0, "f01 from counts", 1),
        ("f02_from_counts", 1, 1, "f02 from counts", 2),
        # refused on its order before its cost is looked at
        ("f02_closed_in_z", 1, -5, "f02", 2),
        # the PDE residual is refused by the closed form it starts from
        ("f02_pde_residual", 3, 2, "f02", 3),
    ],
)
def test_series_refused_below_the_least_order(build, r, order, label, least):
    with pytest.raises(ValueError) as raised:
        getattr(series_module, build)(r, order)
    assert str(raised.value) == (
        f"{label} r={r} order={order}: order {order} is below the least order {least}"
    )


def test_only_admit_series_refuses_an_order_or_spends_the_series_budget():
    package = Path(series_module.__file__).parent
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    helper = inspect.getsource(series_module.admit_series)
    # the least-order refusal, and SERIES_BUDGET handed to index.admit
    for pattern in (r"below the least order", r"admit\([^)]*SERIES_BUDGET"):
        found = {name: len(re.findall(pattern, text)) for name, text in sources.items()}
        assert {name: n for name, n in found.items() if n} == {"series.py": 1}
        assert len(re.findall(pattern, helper)) == 1


def test_an_empty_memo_from_the_caller_is_filled():
    # an empty MemoTable is falsy; it must still be the table that is used
    memo = MemoTable()
    assert verify_jpt(1, 6, memo).passed
    assert len(memo) > 0
    memo = MemoTable()
    f01_from_counts(1, 12, memo)
    assert len(memo) > 0


# ---------------------------------------------------------------------------
# the integer engine against the plain Fraction loops it replaced
# ---------------------------------------------------------------------------
#
# Reference implementations: the per-term Fraction convolutions and the
# power-sum log/exp/inverse, kept verbatim apart from building on each
# other instead of on the engine's products.


def ref_mul1(a, b):
    n = min(a.order, b.order)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        if a.coefficients[i]:
            for j in range(n - i + 1):
                if b.coefficients[j]:
                    out[i + j] += a.coefficients[i] * b.coefficients[j]
    return Series1(out, n, a.var)


def ref_inverse1(f):
    c = f.coefficients
    n = f.order
    inv = [F(0)] * (n + 1)
    inv[0] = 1 / c[0]
    for m in range(1, n + 1):
        acc = F(0)
        for k in range(1, m + 1):
            if c[k]:
                acc += c[k] * inv[m - k]
        inv[m] = -acc / c[0]
    return Series1(inv, n, f.var)


def ref_log1(f):
    u = f - 1
    acc = Series1.zero(f.order, f.var)
    power = Series1.one(f.order, f.var)
    sign = 1
    for k in range(1, f.order + 1):
        power = ref_mul1(power, u)
        if power.is_zero():
            break
        acc = acc + power * F(sign, k)
        sign = -sign
    return acc


def ref_exp1(g):
    acc = Series1.one(g.order, g.var)
    power = Series1.one(g.order, g.var)
    for k in range(1, g.order + 1):
        power = ref_mul1(power, g)
        if power.is_zero():
            break
        acc = acc + power * F(1, factorial(k))
    return acc


def ref_mul2(a, b):
    n = min(a.order, b.order)
    rows = [[F(0)] * (n - i + 1) for i in range(n + 1)]
    left = [(ij, v) for ij, v in a.terms() if sum(ij) <= n]
    right = [(ij, v) for ij, v in b.terms() if sum(ij) <= n]
    for (i1, j1), x in left:
        for (i2, j2), y in right:
            i, j = i1 + i2, j1 + j2
            if i + j <= n:
                rows[i][j] += x * y
    data = {
        (i, j): rows[i][j]
        for i in range(n + 1)
        for j in range(n - i + 1)
        if rows[i][j]
    }
    return Series2(data, n, a.vars)


def ref_inverse2(f):
    c00 = f.coefficient(0, 0)
    one = Series2.monomial(1, 0, 0, f.order, f.vars)
    u = one - f / c00
    acc = one
    power = one
    for _ in range(f.order):
        power = ref_mul2(power, u)
        if power.is_zero():
            break
        acc = acc + power
    return acc / c00


def ref_log2(f):
    u = f - 1
    acc = Series2.zero(f.order, f.vars)
    power = Series2.monomial(1, 0, 0, f.order, f.vars)
    sign = 1
    for k in range(1, f.order + 1):
        power = ref_mul2(power, u)
        if power.is_zero():
            break
        acc = acc + power * F(sign, k)
        sign = -sign
    return acc


# mixed signs and denominators, with zeros common enough to make gaps
coeff = st.one_of(
    st.just(F(0)), st.builds(F, st.integers(-40, 40), st.integers(1, 12))
)
reference = settings(derandomize=True, deadline=None, max_examples=120)


@st.composite
def series1(draw, constant=None, max_order=10):
    """A series with a drawn order and valuation (order + 1 means zero)."""
    order = draw(st.integers(0, max_order))
    valuation = draw(st.integers(0, order + 1))
    coeffs = [F(0)] * valuation + [draw(coeff) for _ in range(valuation, order + 1)]
    if constant is not None:
        coeffs[0] = constant
    return Series1(coeffs, order)


@st.composite
def series2(draw, constant=None):
    """A total-order 0..8 series with a drawn lowest total degree."""
    order = draw(st.integers(0, 8))
    low = draw(st.integers(0, order + 1))
    data = {
        (i, k - i): draw(coeff) for k in range(low, order + 1) for i in range(k + 1)
    }
    if constant is not None:
        data[(0, 0)] = constant
    return Series2(data, order)


nonzero = st.builds(F, st.integers(1, 9), st.integers(1, 9)) | st.builds(
    F, st.integers(-9, -1), st.integers(1, 9)
)


@reference
@given(series1(), series1())
def test_series1_product_matches_fraction_convolution(a, b):
    assert a * b == ref_mul1(a, b)
    assert b * a == ref_mul1(a, b)


@reference
@given(series1(), nonzero)
def test_series1_inverse_matches_fraction_recurrence(f, c0):
    f = f + (c0 - f.coefficient(0))
    assert f.inverse() == ref_inverse1(f)


@reference
@given(series1(constant=F(1)))
def test_series1_log_matches_power_sum(f):
    assert f.log() == ref_log1(f)


@reference
@given(series1(constant=F(0)))
def test_series1_exp_matches_power_sum(g):
    assert g.exp() == ref_exp1(g)


@reference
@given(series2(), series2())
def test_series2_product_matches_fraction_convolution(a, b):
    assert a * b == ref_mul2(a, b)


@reference
@given(series2(), nonzero)
def test_series2_inverse_matches_power_sum(f, c00):
    f = f + (c00 - f.coefficient(0, 0))
    assert f.inverse() == ref_inverse2(f)


@reference
@given(series2(constant=F(1)))
def test_series2_log_matches_power_sum(f):
    assert f.log() == ref_log2(f)


# ---------------------------------------------------------------------------
# Series2 against coefficient-by-coefficient loops
# ---------------------------------------------------------------------------


def coeffs2(a):
    """Every coefficient of ``a`` within its truncation, by (i, j)."""
    n = a.order
    return {
        (i, j): a.coefficient(i, j) for i in range(n + 1) for j in range(n - i + 1)
    }


@reference
@given(series2(), series2())
def test_series2_sum_and_difference_loop(a, b):
    n = min(a.order, b.order)
    ca, cb = coeffs2(a), coeffs2(b)
    kept = [ij for ij in ca if sum(ij) <= n]
    assert (a + b).order == (a - b).order == n
    assert coeffs2(a + b) == {ij: ca[ij] + cb[ij] for ij in kept}
    assert coeffs2(a - b) == {ij: ca[ij] - cb[ij] for ij in kept}
    assert coeffs2(-a) == {ij: -v for ij, v in ca.items()}


@reference
@given(series2(), coeff, nonzero)
def test_series2_scalar_operations_loop(a, c, q):
    ca = coeffs2(a)
    assert coeffs2(a * c) == coeffs2(c * a) == {ij: c * v for ij, v in ca.items()}
    assert coeffs2(a / q) == {ij: v / q for ij, v in ca.items()}
    shifted = dict(ca)
    shifted[0, 0] += c
    assert coeffs2(a + c) == coeffs2(c + a) == shifted
    assert coeffs2(c - a) == {ij: (c if ij == (0, 0) else 0) - v for ij, v in ca.items()}


@reference
@given(series2())
def test_series2_euler_transpose_and_restrictions_loop(a):
    n, ca = a.order, coeffs2(a)
    assert coeffs2(a.euler()) == {(i, j): (i + j) * v for (i, j), v in ca.items()}
    assert coeffs2(a.transposed()) == {(j, i): v for (i, j), v in ca.items()}
    assert a.is_symmetric() == all(v == ca[j, i] for (i, j), v in ca.items())
    assert a.at_z2_zero() == Series1([ca[i, 0] for i in range(n + 1)], n, "z1")
    assert a.at_z1_zero() == Series1([ca[0, j] for j in range(n + 1)], n, "z2")


@reference
@given(series2(), series2())
def test_series2_terms_equality_and_hash_loop(a, b):
    ca = coeffs2(a)
    assert list(a.terms()) == sorted((ij, v) for ij, v in ca.items() if v)
    assert a.is_zero() == (not any(ca.values()))
    rebuilt = Series2(dict(a.terms()), a.order)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    same = a.order == b.order and ca == coeffs2(b)
    assert (a == b) == same
    if same:
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# Series1 against coefficient-by-coefficient loops
# ---------------------------------------------------------------------------


@reference
@given(series1(), series1())
def test_series1_sum_and_difference_loop(a, b):
    n = min(a.order, b.order)
    ca, cb = a.coefficients, b.coefficients
    assert (a + b).order == (a - b).order == n
    assert (a + b).coefficients == tuple(ca[k] + cb[k] for k in range(n + 1))
    assert (a - b).coefficients == tuple(ca[k] - cb[k] for k in range(n + 1))
    assert (-a).coefficients == tuple(-v for v in ca)


@reference
@given(series1(), coeff, nonzero)
def test_series1_scalar_operations_loop(a, c, q):
    ca = a.coefficients
    assert (a * c).coefficients == (c * a).coefficients == tuple(c * v for v in ca)
    assert (a / q).coefficients == tuple(v / q for v in ca)
    assert (a + c).coefficients == (c + a).coefficients == (ca[0] + c,) + ca[1:]
    assert (a - c).coefficients == (ca[0] - c,) + ca[1:]
    assert (c - a).coefficients == (c - ca[0],) + tuple(-v for v in ca[1:])


@reference
@given(series1(), st.integers(0, 4), st.integers(0, 12))
def test_series1_euler_shift_and_truncation_loop(a, k, m):
    ca = a.coefficients
    assert a.euler().coefficients == tuple(i * v for i, v in enumerate(ca))
    shifted = a.shifted(k)
    assert shifted.order == a.order + k
    assert shifted.coefficients == (F(0),) * k + ca
    if m <= a.order:
        assert a.truncated(m).coefficients == ca[: m + 1]
    else:
        with pytest.raises(ValueError):
            a.truncated(m)
    assert a.euler().var == shifted.var == (a / 2).var == (-a).var == a.var


@reference
@given(series1(), series1())
def test_series1_equality_hash_and_valuation_loop(a, b):
    ca = a.coefficients
    assert a.is_zero() == (not any(ca))
    assert a.valuation() == next((k for k, v in enumerate(ca) if v), None)
    assert [a[k] for k in range(a.order + 1)] == list(ca)
    rebuilt = Series1(list(ca), a.order)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    same = ca == b.coefficients
    assert (a == b) == same and (a != b) == (not same)
    if same:
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# the flat and graded kernels against each other
# ---------------------------------------------------------------------------
#
# Restricting to z2 = 0 or z1 = 0 is a ring map from Series2 to Series1, so
# each Series2 operation, restricted, must equal the Series1 operation on
# the restrictions.


@reference
@given(series2(), series2())
def test_product_commutes_with_restriction(a, b):
    assert (a * b).at_z2_zero() == a.at_z2_zero() * b.at_z2_zero()
    assert (a * b).at_z1_zero() == a.at_z1_zero() * b.at_z1_zero()


@reference
@given(series2(), nonzero)
def test_inverse_log_and_euler_commute_with_restriction(f, c00):
    f = f + (c00 - f.coefficient(0, 0))
    unit = f / c00
    for restrict in (Series2.at_z2_zero, Series2.at_z1_zero):
        assert restrict(f.inverse()) == restrict(f).inverse()
        assert restrict(unit.log()) == restrict(unit).log()
        assert restrict(f.euler()) == restrict(f).euler()


@pytest.mark.parametrize("c", [0, 1, F(-3, 7)])
def test_series1_never_equals_series2(c):
    # at order 0 both carriers hold the one component (c,)
    pairs = [
        (Series1([c], 0), Series2({(0, 0): c}, 0)),
        (Series1([c, 0], 1), Series2({(0, 0): c}, 1)),
    ]
    for one, two in pairs:
        assert one != two and two != one
        assert not one == two and not two == one
        assert len({one, two}) == 2
