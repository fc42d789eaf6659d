"""Cross-check suites tying the three computation routes together.

Each suite compares two independent routes to the same numbers (recursion
vs closed form, recursion vs monodromy count, closed-form series vs
count-built series, or a series identity vs the zero series) and returns
a :class:`~orbifold_hurwitz.report.VerificationReport`.

Each suite's check, in :data:`SUITE_CHECKS` under its ``--suite`` name,
refuses the suite's arguments (all but the memo) before any work, with a
``ValueError`` or a ``BudgetExceededError``.  Each ``verify_*`` runs its
check first; the CLI runs every check before any suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .core import (
    MemoTable,
    arrowed_hurwitz,
    check_budget,
    jpt_h01,
    jpt_h02,
    orbifold_hurwitz,
    partitions,
    tree_number,
)
from .index import HurwitzIndex, admit, edge_count
from .oracle import ORACLE_BUDGET, count_monodromy_tuples, steps_within
from .report import VerificationReport
from .series import (
    SERIES_BUDGET,
    f01_closed_in_z,
    f01_from_counts,
    f01_in_x,
    f02_closed_in_z,
    f02_from_counts,
    f02_pde_residual,
    lambert_functional_residual,
    series_cost,
    spectral_curve_y_of_x,
    spectral_ode_residual,
)

__all__ = [
    "verify_against_oracle",
    "verify_cayley",
    "verify_f01",
    "verify_f02",
    "verify_f02_pde",
    "verify_jpt",
    "verify_r_scaling",
    "verify_spectral_ode",
]

_ZERO = Fraction(0)


def _jpt_check(r: int, d_max: int) -> int:
    """:func:`verify_jpt`'s costliest query: the top degree, in two parts if it can."""
    if d_max < r:
        raise ValueError("d_max must be at least r")
    top = d_max - d_max % r
    return check_budget(r, 0, top, min(top, 2))


def _cayley_check(d_max: int) -> int:
    if d_max < 1:
        raise ValueError("d_max must be positive")
    return check_budget(1, 0, d_max, 1)


def _scaling_check(r: int, m_max: int) -> int:
    if m_max < 1:
        raise ValueError("m_max must be positive")
    return check_budget(r, 0, r * m_max, 1)


def _series_check(suite: str, r: int, order: int, least: int, cost: int) -> int:
    what = f"suite {suite} --r {r}"
    if order < least:
        raise ValueError(f"{what}: order {order} is below the least order {least}")
    return admit(what, cost, SERIES_BUDGET, "series")


def oracle_cases(
    r_set: tuple[int, ...] | list[int], d_max: int, s_max: int
) -> tuple[list[HurwitzIndex], int]:
    """Every admissible (r, g, mu) with d <= d_max and s <= s_max, in the
    order the oracle suite checks them, and the run's estimated steps.

    Since s >= d/r + n - 2, only d <= r (s_max + 1) and profiles of at
    most s_max + 2 - d/r parts have cases.  The run's estimate is the sum
    of the cases' ``estimated_steps``; it goes through
    :func:`~orbifold_hurwitz.index.admit` case by case, so a run over
    ``ORACLE_BUDGET`` is refused as soon as the sum passes it, before
    anything is counted.
    """
    if d_max < 1 or s_max < 0:
        raise ValueError("budgets must be positive")
    run = f"oracle suite d_max={d_max} s_max={s_max}"
    cases: list[HurwitzIndex] = []
    steps = 0
    for r in sorted(set(r_set)):
        for d in range(r, min(d_max, r * (s_max + 1)) + 1, r):
            for mu in partitions(d, max_parts=s_max + 2 - d // r):
                g = 0
                while (s := edge_count(r, g, mu)) <= s_max:
                    case = steps_within(r, d, s, ORACLE_BUDGET - steps)
                    total = None if case is None else steps + case
                    steps = admit(run, total, ORACLE_BUDGET, "oracle")
                    cases.append(HurwitzIndex(r, g, mu))
                    g += 1
    return cases, steps


# Each suite's check by its --suite name: the recursion suites admit their
# costliest query, the oracle suite its whole run (and returns its cases),
# the series suites their least order (2r for ode/f01, max(2, r) for
# f02/pde) and their series_cost.  f01 is held to the Horner cost of
# ``f01_from_counts``, the r = 1 curve's count (see ``series_cost``).
SUITE_CHECKS = {
    "jpt": _jpt_check,
    "cayley": _cayley_check,
    "oracle": oracle_cases,
    "f01": lambda r, order: _series_check("f01", r, order, 2 * r, series_cost("curve", 1, order)),
    "f02": lambda r, order: _series_check("f02", r, order, max(2, r), series_cost("f02", r, order)),
    "ode": lambda r, order: _series_check("ode", r, order, 2 * r, series_cost("curve", r, order)),
    "pde": lambda r, order: _series_check("pde", r, order, max(2, r), series_cost("f02", r, order)),
    "scaling": _scaling_check,
}


def verify_jpt(r: int, d_max: int, memo: MemoTable | None = None) -> VerificationReport:
    """Recursion vs the genus-0 closed forms for one- and two-part profiles.

    Cases are the profiles (d) for r | d <= d_max and the ordered pairs
    (a, d - a); divisibility-violating profiles are excluded since both
    routes define them to be zero.
    """
    SUITE_CHECKS["jpt"](r, d_max)
    memo = MemoTable() if memo is None else memo
    report = VerificationReport(f"jpt r={r} d_max={d_max}")
    for d in range(r, d_max + 1, r):
        report.check(
            f"r={r} mu=({d})",
            jpt_h01(r, d),
            orbifold_hurwitz(HurwitzIndex(r, 0, (d,)), memo),
        )
        for a in range(1, d):
            report.check(
                f"r={r} mu=({a},{d - a})",
                jpt_h02(r, a, d - a),
                orbifold_hurwitz(HurwitzIndex(r, 0, (a, d - a)), memo),
            )
    return report


def verify_cayley(d_max: int, memo: MemoTable | None = None) -> VerificationReport:
    """Tree counts vs the closed power formula and vs the one-part recursion."""
    SUITE_CHECKS["cayley"](d_max)
    memo = MemoTable() if memo is None else memo
    report = VerificationReport(f"cayley d_max={d_max}")
    for d in range(1, d_max + 1):
        closed = d ** (d - 2) if d >= 2 else 1
        report.check(f"T({d}) = d^(d-2)", closed, tree_number(d))
        via_counts = factorial(d - 1) * arrowed_hurwitz(HurwitzIndex(1, 0, (d,)), memo)
        report.check(f"T({d}) = (d-1)! * count(d)", tree_number(d), via_counts)
    return report


def verify_r_scaling(
    r: int, m_max: int, memo: MemoTable | None = None
) -> VerificationReport:
    """The rescaled one-part counts a_m = r * count(r m) close under the
    r = 1 quadratic recursion, seeded at a_1 = r."""
    SUITE_CHECKS["scaling"](r, m_max)
    memo = MemoTable() if memo is None else memo
    report = VerificationReport(f"scaling r={r} m_max={m_max}")
    a = [None] + [
        r * arrowed_hurwitz(HurwitzIndex(r, 0, (r * m,)), memo)
        for m in range(1, m_max + 1)
    ]
    report.check(f"a_1 = r (r={r})", Fraction(r), a[1])
    for m in range(2, m_max + 1):
        lhs = (m - 1) * a[m]
        rhs = Fraction(m, 2) * sum(a[i] * a[m - i] for i in range(1, m))
        report.check(f"(m-1) a_m = (m/2) sum a_i a_j at m={m}", lhs, rhs)
    return report


def verify_spectral_ode(r: int, order: int) -> VerificationReport:
    """The curve series kills both its first-order ODE and the defining
    functional equation, order by order."""
    SUITE_CHECKS["ode"](r, order)
    report = VerificationReport(f"ode r={r} order={order}")
    curve = spectral_curve_y_of_x(r, order)
    ode = spectral_ode_residual(r, curve)
    for k, c in enumerate(ode.coefficients):
        report.check(f"ODE residual [x^{k}]", _ZERO, c)
    functional = lambert_functional_residual(r, curve)
    for k, c in enumerate(functional.coefficients):
        report.check(f"curve-equation residual [x^{k}]", _ZERO, c)
    return report


def verify_f01(
    r: int, order: int, memo: MemoTable | None = None
) -> VerificationReport:
    """Closed form of the one-point energy vs the count-built series,
    plus the Euler-derivative bridge back to the curve."""
    SUITE_CHECKS["f01"](r, order)
    memo = MemoTable() if memo is None else memo
    report = VerificationReport(f"f01 r={r} order={order}")
    closed = f01_closed_in_z(r, order)
    counted = f01_from_counts(r, order, memo)
    for k in range(order + 1):
        report.check(
            f"[z^{k}] closed vs counts",
            closed.coefficient(k),
            counted.coefficient(k),
        )
    euler = f01_in_x(r, order, memo).euler()
    curve = spectral_curve_y_of_x(r, order)
    for k in range(order + 1):
        report.check(
            f"[x^{k}] x d/dx energy vs curve",
            curve.coefficient(k),
            euler.coefficient(k),
        )
    return report


def verify_f02(
    r: int, total_order: int, memo: MemoTable | None = None
) -> VerificationReport:
    """Closed form of the two-point energy vs the count-built series,
    coefficient by coefficient, plus boundary and symmetry checks."""
    SUITE_CHECKS["f02"](r, total_order)
    memo = MemoTable() if memo is None else memo
    report = VerificationReport(f"f02 r={r} total_order={total_order}")
    closed = f02_closed_in_z(r, total_order)
    counted = f02_from_counts(r, total_order, memo)
    for i in range(total_order + 1):
        for j in range(total_order - i + 1):
            report.check(
                f"[z1^{i} z2^{j}] closed vs counts",
                closed.coefficient(i, j),
                counted.coefficient(i, j),
            )
    report.check("boundary z2=0", True, closed.at_z2_zero().is_zero())
    report.check("boundary z1=0", True, closed.at_z1_zero().is_zero())
    report.check("symmetry", True, closed.is_symmetric())
    return report


def verify_f02_pde(r: int, total_order: int) -> VerificationReport:
    """The closed two-point energy satisfies its first-order PDE exactly."""
    SUITE_CHECKS["pde"](r, total_order)
    report = VerificationReport(f"pde r={r} total_order={total_order}")
    residual = f02_pde_residual(r, total_order)
    for i in range(total_order + 1):
        for j in range(total_order - i + 1):
            report.check(
                f"PDE residual [z1^{i} z2^{j}]",
                _ZERO,
                residual.coefficient(i, j),
            )
    return report


def verify_against_oracle(
    r_set: tuple[int, ...] | list[int],
    d_max: int,
    s_max: int,
    memo: MemoTable | None = None,
) -> VerificationReport:
    """Monodromy count vs the recursion, over every admissible
    (r, g, mu) with d <= d_max and s <= s_max.

    :func:`oracle_cases` lists the cases first and refuses a run over
    the oracle's budget; a case over the recursion's budget is refused
    too, each with :class:`~orbifold_hurwitz.index.BudgetExceededError`.
    """
    memo = MemoTable() if memo is None else memo
    report = VerificationReport(
        "oracle r={{{0}}} d_max={1} s_max={2}".format(
            ",".join(str(r) for r in sorted(set(r_set))), d_max, s_max
        )
    )
    for idx in SUITE_CHECKS["oracle"](r_set, d_max, s_max)[0]:
        report.check(
            f"r={idx.r} g={idx.g} mu={idx.mu}",
            orbifold_hurwitz(idx, memo),
            count_monodromy_tuples(idx),
        )
    return report
