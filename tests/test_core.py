"""Exact values and invariants of the counting recursion."""

import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from pathlib import Path

import pytest

import orbifold_hurwitz.core as core_module
from orbifold_hurwitz import (
    BudgetExceededError,
    DivisibilityError,
    HurwitzIndex,
    MemoTable,
    arrowed_hurwitz,
    canonical_profile,
    jpt_h01,
    jpt_h02,
    orbifold_hurwitz,
    partitions,
    tree_number,
    verify_cayley,
    verify_jpt,
    verify_r_scaling,
)
from orbifold_hurwitz.core import check_budget
from orbifold_hurwitz.index import admit, edge_count

F = Fraction


# ---------------------------------------------------------------------------
# index plumbing
# ---------------------------------------------------------------------------


def test_index_derived_fields():
    idx = HurwitzIndex(2, 1, (3, 1))
    assert (idx.d, idx.n, idx.m, idx.s) == (4, 2, 2, 4)
    assert idx.divisible
    assert not HurwitzIndex(3, 0, (4,)).divisible
    # s = 2g - 2 + d/r + n, the number of simple branch points
    assert HurwitzIndex(2, 0, (3, 1)).s == 2
    assert HurwitzIndex(3, 0, (3,)).s == 0
    assert HurwitzIndex(1, 1, (2, 1)).s == 5
    with pytest.raises(DivisibilityError):
        HurwitzIndex(2, 0, (3,)).s
    with pytest.raises(DivisibilityError):
        HurwitzIndex(2, 0, (3,)).m


@pytest.mark.parametrize(
    "bad",
    [
        dict(r=0, g=0, mu=(1,)),
        dict(r=-2, g=0, mu=(1,)),
        dict(r=1, g=-1, mu=(1,)),
        dict(r=1, g=0, mu=()),
        dict(r=1, g=0, mu=(0,)),
        dict(r=1, g=0, mu=(2, -1)),
        dict(r=True, g=False, mu=(2,)),
        dict(r=True, g=0, mu=(2,)),
        dict(r=1, g=False, mu=(2,)),
    ],
)
def test_index_validation(bad):
    with pytest.raises(ValueError):
        HurwitzIndex(**bad)


def test_canonical_profile():
    assert canonical_profile([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        canonical_profile([])
    with pytest.raises(ValueError):
        canonical_profile([1, 0])


# ---------------------------------------------------------------------------
# recursion values
# ---------------------------------------------------------------------------


def test_two_part_anchor_value():
    memo = MemoTable()
    assert arrowed_hurwitz(HurwitzIndex(2, 0, (3, 1)), memo) == F(9, 2)
    assert orbifold_hurwitz(HurwitzIndex(2, 0, (3, 1)), memo) == F(3, 2)


def test_one_part_base_cases():
    for r in range(1, 6):
        assert arrowed_hurwitz(HurwitzIndex(r, 0, (r,))) == 1
        assert orbifold_hurwitz(HurwitzIndex(r, 0, (r,))) == F(1, r)
    # below the orbifold order the count vanishes
    assert arrowed_hurwitz(HurwitzIndex(2, 0, (1,))) == 0
    assert arrowed_hurwitz(HurwitzIndex(5, 0, (3,))) == 0


def test_one_part_values_match_hand_unrolled_recursion():
    # (d/r - 1) c(d) = (d/2) * sum_{a+b=d} c(a) c(b), seeded at c(r) = 1,
    # unrolled by hand for the first few degrees.
    memo = MemoTable()
    assert arrowed_hurwitz(HurwitzIndex(1, 0, (3,)), memo) == F(3, 2)
    assert arrowed_hurwitz(HurwitzIndex(2, 0, (4,)), memo) == 2
    assert arrowed_hurwitz(HurwitzIndex(2, 0, (6,)), memo) == 6


def test_orbifold_examples():
    memo = MemoTable()
    assert orbifold_hurwitz(HurwitzIndex(2, 0, (2,)), memo) == F(1, 2)
    assert orbifold_hurwitz(HurwitzIndex(1, 0, (2, 1)), memo) == F(2, 3)


def test_zero_conventions():
    memo = MemoTable()
    # non-divisible degree
    assert arrowed_hurwitz(HurwitzIndex(2, 1, (3,)), memo) == 0
    # degree-1 cover cannot carry simple branch points
    assert arrowed_hurwitz(HurwitzIndex(1, 1, (1,)), memo) == 0


# ---------------------------------------------------------------------------
# tree numbers
# ---------------------------------------------------------------------------


def test_tree_sequence():
    assert [tree_number(d) for d in range(1, 7)] == [1, 1, 3, 16, 125, 1296]


def test_tree_power_formula():
    for d in range(2, 13):
        assert tree_number(d) == d ** (d - 2)
    assert tree_number(8) == 262144


def test_tree_matches_one_part_counts():
    memo = MemoTable()
    for d in range(1, 10):
        count = arrowed_hurwitz(HurwitzIndex(1, 0, (d,)), memo)
        assert factorial(d - 1) * count == tree_number(d)


def test_tree_number_rejects_bad_input():
    with pytest.raises(ValueError):
        tree_number(0)


def test_tree_number_needs_no_python_stack():
    # the smaller values are filled in increasing order, one level deep
    tree_number.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        value = tree_number(600)
    finally:
        sys.setrecursionlimit(limit)
    assert value == 600**598


def test_tree_number_non_integral_quotient_raises(monkeypatch):
    # With every binomial forced to 1, (d - 1) T_d = 1/2 at d = 2 has no
    # integral solution.  divmod catches it in every build, -O included.
    from orbifold_hurwitz import core

    tree_number.cache_clear()
    monkeypatch.setattr(core, "comb", lambda d, a: 1)
    try:
        with pytest.raises(ArithmeticError):
            tree_number(2)
    finally:
        tree_number.cache_clear()


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_jpt_h01_values():
    assert jpt_h01(1, 4) == F(2, 3)
    assert jpt_h01(2, 2) == F(1, 2)
    assert jpt_h01(2, 3) == 0
    assert jpt_h01(3, 3) == F(1, 3)


def test_jpt_h02_values():
    assert jpt_h02(2, 1, 2) == 0
    assert jpt_h02(2, 3, 1) == F(3, 2)
    assert jpt_h02(1, 1, 1) == F(1, 2)


def test_jpt_rejects_bad_input():
    with pytest.raises(ValueError):
        jpt_h01(0, 3)
    with pytest.raises(ValueError):
        jpt_h02(2, 0, 1)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_symmetry_under_profile_permutations():
    rng = random.Random(20260810)
    for _ in range(25):
        r = rng.choice([1, 2, 3])
        g = rng.randint(0, 2)
        n = rng.randint(2, 4)
        mu = [rng.randint(1, 6) for _ in range(n)]
        reference = arrowed_hurwitz(HurwitzIndex(r, g, tuple(mu)))
        for _ in range(3):
            rng.shuffle(mu)
            assert arrowed_hurwitz(HurwitzIndex(r, g, tuple(mu))) == reference


def test_divisibility_forces_zero_exhaustively():
    memo = MemoTable()
    for r in (2, 3):
        for d in range(1, 11):
            if d % r == 0:
                continue
            for mu in partitions(d):
                for g in (0, 1):
                    assert arrowed_hurwitz(HurwitzIndex(r, g, mu), memo) == 0


def test_arrowed_equals_profile_product_times_orbifold():
    memo = MemoTable()
    rng = random.Random(7)
    for _ in range(20):
        r = rng.choice([1, 2])
        g = rng.randint(0, 1)
        mu = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        idx = HurwitzIndex(r, g, mu)
        scale = 1
        for p in mu:
            scale *= p
        assert arrowed_hurwitz(idx, memo) == scale * orbifold_hurwitz(idx, memo)


def test_determinism_across_fresh_memo_tables():
    idx = HurwitzIndex(2, 1, (4, 2))
    first = arrowed_hurwitz(idx, MemoTable())
    second = arrowed_hurwitz(idx, MemoTable())
    assert first == second


def test_memo_canonicalizes_profile_order():
    memo = MemoTable()
    a = arrowed_hurwitz(HurwitzIndex(2, 1, (3, 1, 2)), memo)
    size = len(memo)
    b = arrowed_hurwitz(HurwitzIndex(2, 1, (1, 2, 3)), memo)
    assert a == b
    assert len(memo) == size  # permuted query hits the same entries
    assert memo.lookup(2, 1, (2, 1, 3)) == a
    assert (2, 1, (1, 3, 2)) in memo


def test_memo_lookup_returns_fractions():
    memo = MemoTable()
    value = arrowed_hurwitz(HurwitzIndex(1, 1, (2, 1)), memo)
    assert value == F(2, 3)  # stored as the integer 5! * 2/3 = 80
    assert isinstance(memo.lookup(1, 1, (1, 2)), Fraction)
    assert memo.lookup(1, 1, (1, 2)) == value
    assert memo.lookup(1, 0, (1, 2)) == F(4, 3)
    assert memo.lookup(1, 5, (2, 1)) is None
    assert (1, 1, [1, 2]) in memo
    assert (1, 5, [1, 2]) not in memo


def test_scaled_counts_are_integers():
    # s! * arrowed counts arrowed graphs with labeled edges.
    memo = MemoTable()
    for r in (1, 2, 3):
        for g in range(3):
            for d in range(r, 13, r):
                for mu in partitions(d):
                    idx = HurwitzIndex(r, g, mu)
                    assert (factorial(idx.s) * arrowed_hurwitz(idx, memo)).denominator == 1


def test_deep_recursion_needs_no_python_stack():
    # s = 299 edges deep; the seed implementation overflowed the stack here.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        value = orbifold_hurwitz(HurwitzIndex(1, 0, (300,)))
    finally:
        sys.setrecursionlimit(limit)
    assert value == jpt_h01(1, 300)


def test_budget_refuses_before_evaluating():
    memo = MemoTable()
    with pytest.raises(BudgetExceededError):
        arrowed_hurwitz(HurwitzIndex(1, 0, (1,) * 600), memo)
    with pytest.raises(BudgetExceededError):
        arrowed_hurwitz(HurwitzIndex(1, 0, (1200,)), memo)
    assert len(memo) == 0
    # s = 0 needs no evaluation, however large the degree
    assert arrowed_hurwitz(HurwitzIndex(10**6, 0, (10**6,)), memo) == 1


def test_check_budget_is_the_refusal_every_query_passes():
    check_budget(1, 0, 707, 1)
    # (708,) and (199, 1)
    for d, n in ((708, 1), (200, 2)):
        with pytest.raises(BudgetExceededError, match=f"d={d} n={n}"):
            check_budget(1, 0, d, n)
    # s = 0 and r not dividing d evaluate nothing, however large the degree
    check_budget(10**6, 0, 10**6, 1)
    check_budget(2, 0, 10**6 + 1, 1)


@pytest.mark.parametrize(
    "numbers", [(0, 0, 1, 1), (1, -1, 4, 1), (1, 0, 5, 0), (1, 1, 0, 1), (1, 0, 2, 3)]
)
def test_check_budget_refuses_numbers_no_query_has(numbers):
    with pytest.raises(ValueError, match="no query has"):
        check_budget(*numbers)


def test_check_budget_returns_the_planned_cost():
    # the costliest rows of the two table-sweep benchmark tables, (1,) * 16
    # at r = 1 and (1,) * 20 at r = 2, both at g = 2
    assert check_budget(1, 2, 16, 16) == 131_616
    assert check_budget(2, 2, 20, 20) == 276_660
    assert check_budget(10**6, 0, 10**6, 1) == 0


@pytest.mark.parametrize("d", [708, 3000, 10**6])
def test_tree_number_refused_over_the_one_part_budget(d):
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"d={d} n=1"):
        tree_number(d)
    assert time.perf_counter() - started < 1


def test_admit_is_the_one_refusal():
    assert admit("query", 7, 7, "series") == 7
    with pytest.raises(BudgetExceededError) as known:
        admit("query", 8, 7, "series")
    assert str(known.value) == "query: cost bound 8 exceeds the series budget of 7"
    with pytest.raises(BudgetExceededError) as abandoned:
        admit("query", None, 7, "oracle")
    assert str(abandoned.value) == "query: cost bound exceeds the oracle budget of 7"


def test_only_admit_builds_the_budget_error():
    package = Path(core_module.__file__).parent
    raising = sorted(
        path.name
        for path in package.glob("*.py")
        if "BudgetExceededError(" in path.read_text()
    )
    # the class statement and the one raise in ``admit``
    assert raising == ["index.py"]
    assert Path(package, "index.py").read_text().count("BudgetExceededError(") == 2


def test_non_negativity_on_computed_range():
    memo = MemoTable()
    for r in (1, 2):
        for g in range(0, 3):
            for d in range(1, 9):
                for mu in partitions(d):
                    assert arrowed_hurwitz(HurwitzIndex(r, g, mu), memo) >= 0


def test_degree_two_family_all_genera():
    # every simple branch point of a 2-sheeted cover swaps the sheets, so
    # the monodromy is forced and the count is 1/(2 s!) by hand:
    # arrowed (2) -> 1/(2g+1)!, arrowed (1,1) -> 1/(2g+2)!
    memo = MemoTable()
    for g in range(0, 7):
        assert arrowed_hurwitz(HurwitzIndex(1, g, (2,)), memo) == F(
            1, factorial(2 * g + 1)
        )
        assert arrowed_hurwitz(HurwitzIndex(1, g, (1, 1)), memo) == F(
            1, factorial(2 * g + 2)
        )


def test_strict_positivity_spot_checks():
    memo = MemoTable()
    for d in range(1, 9):
        for mu in partitions(d):
            assert arrowed_hurwitz(HurwitzIndex(1, 0, mu), memo) > 0
    assert arrowed_hurwitz(HurwitzIndex(2, 1, (4,)), memo) > 0
    assert arrowed_hurwitz(HurwitzIndex(1, 2, (2,)), memo) > 0


# ---------------------------------------------------------------------------
# the contraction step
# ---------------------------------------------------------------------------


def _reference_splits(rest):
    """The split helper as it was before splits carried their degree and
    length: one ``extend`` per pick of ``itertools.product``."""
    values = []
    mults = []
    for v in rest:
        if values and values[-1] == v:
            mults[-1] += 1
        else:
            values.append(v)
            mults.append(1)
    splits = []
    for picks in product(*(range(m + 1) for m in mults)):
        ways = 1
        left = []
        right = []
        for v, m, k in zip(values, mults, picks):
            ways *= comb(m, k)
            left.extend([v] * k)
            right.extend([v] * (m - k))
        splits.append((tuple(left), tuple(right), ways))
    return splits


def _reference_known(r, g, mu, table):
    value = table.get((r, g, mu))
    if value is not None:
        return value
    s = edge_count(r, g, mu)
    if s is None or g < 0:
        return 0
    if s == 0:
        return 1 if (g == 0 and mu == (r,)) else 0
    return None


def _reference_contraction(r, g, mu, table):
    """The contraction step as it was before the residue-class walk: every
    child built by ``sorted``, every split tried for every a."""
    s = edge_count(r, g, mu)
    n = len(mu)
    runs = []
    start = 0
    while start < n:
        end = start
        while end < n and mu[end] == mu[start]:
            end += 1
        runs.append((mu[start], start, end - start))
        start = end

    acc = 0
    for x, (u, i, mult_u) in enumerate(runs):
        for v, j, mult_v in runs[x:]:
            if j == i:
                pairs = mult_u * (mult_u - 1) // 2
                j = i + 1
            else:
                pairs = mult_u * mult_v
            if not pairs:
                continue
            merged = tuple(
                sorted(
                    mu[:i] + (u + v,) + mu[i + 1 : j] + mu[j + 1 :],
                    reverse=True,
                )
            )
            assert edge_count(r, g, merged) == s - 1
            child = _reference_known(r, g, merged, table)
            if child is None:
                child = yield g, merged
            acc += pairs * u * v * child

    loop_acc = 0
    for value, start, mult in runs:
        rest = mu[:start] + mu[start + 1 :]
        inner = 0
        if value >= 2:
            splits = _reference_splits(rest)
            for a in range(1, value):
                b = value - a
                handle = tuple(sorted(rest + (a, b), reverse=True))
                assert edge_count(r, g - 1, handle) in (None, s - 1)
                child = _reference_known(r, g - 1, handle, table)
                if child is None:
                    child = yield g - 1, handle
                inner += child
                for left, right, ways in splits:
                    mu1 = tuple(sorted((a,) + left, reverse=True))
                    s1 = edge_count(r, 0, mu1)
                    if s1 is None:
                        continue
                    mu2 = tuple(sorted((b,) + right, reverse=True))
                    assert s1 + edge_count(r, g, mu2) == s - 1
                    for g1 in range(g + 1):
                        lhs = _reference_known(r, g1, mu1, table)
                        if lhs is None:
                            lhs = yield g1, mu1
                        if not lhs:
                            continue
                        rhs = _reference_known(r, g - g1, mu2, table)
                        if rhs is None:
                            rhs = yield g - g1, mu2
                        if rhs:
                            inner += ways * comb(s - 1, s1 + 2 * g1) * lhs * rhs
        loop_acc += value * mult * inner

    half, odd = divmod(loop_acc, 2)
    if odd:
        raise ArithmeticError(f"odd loop sum at r={r} g={g} mu={mu}")
    result = acc + half
    table[(r, g, mu)] = result
    return result


def _reference_fill(r, g, mu, table):
    """Fill ``table`` with E for (r, g, mu) and its descendants, through
    the reference contraction step on the same explicit stack."""
    value = _reference_known(r, g, mu, table)
    if value is not None:
        return value
    stack = [_reference_contraction(r, g, mu, table)]
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(_reference_contraction(r, *child, table))
            value = None
    return value


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_memo_table_matches_the_sorting_reference(r):
    # The residue-class walk skips the splits with r not dividing d1; at
    # r >= 3 only this test checks that it skips no others.
    memo = MemoTable()
    reference = {}
    for g in range(3):
        for d in range(r, (12 if r < 3 else 15) + 1, r):
            for mu in partitions(d):
                value = arrowed_hurwitz(HurwitzIndex(r, g, mu), memo)
                expected = _reference_fill(r, g, mu, reference)
                assert value * factorial(edge_count(r, g, mu)) == expected
    assert memo._table == reference
    assert len(reference) > 100


def test_memo_table_keeps_its_zero_entries():
    # A degree-1 cover of positive genus does not exist: E(1, g, (1,)) = 0.
    memo = MemoTable()
    reference = {}
    for mu in partitions(3):
        arrowed_hurwitz(HurwitzIndex(1, 2, mu), memo)
        _reference_fill(1, 2, mu, reference)
    assert memo._table == reference
    assert memo._table[1, 1, (1,)] == memo._table[1, 2, (1,)] == 0


@pytest.mark.parametrize(
    "rest", [(), (4,), (3, 3, 3, 3), (3, 2, 2, 1, 1, 1), (6, 4, 4, 2, 1)]
)
def test_submultiset_splits_match_index_subsets(rest):
    expected = Counter()
    for k in range(len(rest) + 1):
        for picked in combinations(range(len(rest)), k):
            left = tuple(rest[i] for i in picked)
            right = tuple(p for i, p in enumerate(rest) if i not in picked)
            expected[left, right] += 1
    splits = core_module._submultiset_splits(rest)
    pairs = [(left, right) for left, right, *_ in splits]
    assert len(pairs) == len(set(pairs)) == len(expected)
    for left, right, ways, degree, length in splits:
        assert ways == expected[left, right]
        assert (degree, length) == (sum(left), len(left))
    assert sum(ways for _, _, ways, _, _ in splits) == 2 ** len(rest)


def test_odd_loop_sum_raises(monkeypatch):
    # Counting one split once more breaks the a <-> b pairing of the loop
    # sum; at r = 2, mu = (3, 1) that adds 3 * E(2, 0, (1, 1)) * E(2, 0, (2,)).
    splits = core_module._submultiset_splits

    def one_extra_way(rest):
        *others, (left, right, ways, degree, length) = splits(rest)
        return [*others, (left, right, ways + 1, degree, length)]

    monkeypatch.setattr(core_module, "_submultiset_splits", one_extra_way)
    with pytest.raises(ArithmeticError, match="odd loop sum"):
        arrowed_hurwitz(HurwitzIndex(2, 0, (3, 1)), MemoTable())


# ---------------------------------------------------------------------------
# built-in suites
# ---------------------------------------------------------------------------


def test_verify_jpt_passes_and_counts_cases():
    report = verify_jpt(1, 6)
    assert report.passed
    # profiles (d) for d <= 6 plus ordered pairs (a, d - a): 6 + 15
    assert len(report.cases) == 21


def test_verify_jpt_r2_r3():
    assert verify_jpt(2, 8).passed
    report = verify_jpt(3, 3)
    assert report.passed
    assert [c.description for c in report.cases] == [
        "r=3 mu=(3)",
        "r=3 mu=(1,2)",
        "r=3 mu=(2,1)",
    ]


def test_verify_r_scaling():
    for r in (1, 2, 3):
        report = verify_r_scaling(r, 6)
        assert report.passed
        assert report.cases[0].expected == str(r)  # seed value a_1 = r


def test_verify_cayley():
    assert verify_cayley(10).passed
