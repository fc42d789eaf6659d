"""A whole-table sum rule for the recursion, from the one-row Schur
specialization.

Set every power sum p_k = x^k.  Then every Schur function but the one-row
s_(d) vanishes, and the disconnected count is the sum over all tuples
whose sigma_0 has type (r^m):

    Z = sum_m x^(rm) e^(beta C(rm, 2)) / (m! r^m)

(Frobenius; Lando-Zvonkin, *Graphs on Surfaces and Their Applications*,
App. A).  The exponential formula, with the oracle's 1/(d! s!)
normalization, gives the connected count

    [x^d beta^s] log Z
        = sum_{nu |- d, 2g = s + 2 - d/r - l(nu)} orbifold_hurwitz(r, g, nu) / prod_j m_j(nu)!

where m_j(nu) counts the parts of nu equal to j.  The left side is built
here from ``Fraction`` and ``math`` alone, so it shares no code with the
recursion; each (d, s) checks a weighted sum over a whole row of values.
"""

from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import orbifold_hurwitz.core as core_module
from orbifold_hurwitz import HurwitzIndex, MemoTable, orbifold_hurwitz, partitions

# (r, largest degree) for every s <= S_MAX: 130 + 91 + 65 + 52 = 338 sums
GRID = [(1, 10), (2, 14), (3, 15), (4, 16)]
S_MAX = 12


def log_z(r, d_max, s_max):
    """[x^d beta^s] log Z as ``L[d][s]``, for d <= d_max and s <= s_max."""
    z = [[Fraction(0)] * (s_max + 1) for _ in range(d_max + 1)]
    for d in range(0, d_max + 1, r):
        m = d // r
        scale = factorial(m) * r**m
        z[d] = [Fraction(comb(d, 2) ** k, factorial(k) * scale) for k in range(s_max + 1)]
    # d L_d = d Z_d - sum_{k < d} k L_k Z_(d-k), Z_0 = 1, beta truncated at s_max
    logs = [None] * (d_max + 1)
    for d in range(r, d_max + 1, r):
        acc = [d * c for c in z[d]]
        for k in range(r, d, r):
            for i, left in enumerate(logs[k]):
                if left:
                    for j in range(s_max + 1 - i):
                        acc[i + j] -= k * left * z[d - k][j]
        logs[d] = [c / d for c in acc]
    return logs


def weighted_row(r, d, s, memo):
    """The right side: orbifold_hurwitz over every profile of degree d whose
    genus makes its edge count s, each over its multiplicities' factorials."""
    total = Fraction(0)
    for nu in partitions(d):
        twice_g = s + 2 - d // r - len(nu)
        if twice_g >= 0 and twice_g % 2 == 0:
            weight = prod(factorial(m) for m in Counter(nu).values())
            total += orbifold_hurwitz(HurwitzIndex(r, twice_g // 2, nu), memo) / weight
    return total


def mismatches():
    """The (r, d, s) whose two sides differ, and the number of sums checked."""
    wrong, checked = [], 0
    for r, d_max in GRID:
        memo = MemoTable()
        logs = log_z(r, d_max, S_MAX)
        for d in range(r, d_max + 1, r):
            for s in range(S_MAX + 1):
                checked += 1
                if logs[d][s] != weighted_row(r, d, s, memo):
                    wrong.append((r, d, s))
    return wrong, checked


def test_sum_rule_holds_on_the_grid():
    assert mismatches() == ([], 338)


def test_sum_rule_catches_a_mutant_the_parity_check_misses(monkeypatch):
    # One extra way on both the first split and its complement, the last,
    # keeps every loop sum even and every split's ways equal to its
    # complement's, so the recursion raises nothing; the sums see it.
    splits = core_module._submultiset_splits

    def extra_ways(r, runs):
        found = splits(r, runs)
        for i in (0, -1):
            left, right, ways = found[i]
            found[i] = (left, right, ways + 1)
        return found

    monkeypatch.setattr(core_module, "_submultiset_splits", extra_ways)
    wrong, checked = mismatches()
    assert checked == 338
    assert len(wrong) > 100
    assert {r for r, _, _ in wrong} == {1, 2, 3, 4}
