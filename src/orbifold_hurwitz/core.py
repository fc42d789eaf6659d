"""Exact counts of simple and orbifold Hurwitz numbers.

The central object is the "arrowed" count of degree-d covers with r-fold
orbifold structure over one point, a labeled profile mu = (mu_1, ..., mu_n)
over a second point, and simple branching elsewhere.  Writing

    d = mu_1 + ... + mu_n,      s = 2g - 2 + d/r + n,

the arrowed count satisfies a recursion in s (contract one of the s edges
of the associated graph), with the single seed value 1 at (g, n, mu) =
(0, 1, (r)).  No floating point is used anywhere.

The recursion runs on the integer E(r, g, mu) = s! * arrowed(r, g, mu),
which counts arrowed graphs with labeled edges, so every step is plain
``int`` arithmetic; ``fractions.Fraction`` appears only at the API
boundary, where E is divided by s!.  Evaluation is demand-driven on an
explicit stack of suspended per-state evaluations, so it visits only the
descendants of the query and never hits Python's recursion limit.  Before
evaluating, :func:`check_budget` refuses a query whose cost bound exceeds
``WORK_BUDGET``, through :func:`~orbifold_hurwitz.index.admit`.  Queries
are named by :class:`~orbifold_hurwitz.index.HurwitzIndex`, which also
owns the edge count s; this module never imports the monodromy oracle.

Concurrency: all functions are pure.  ``MemoTable`` relies on CPython's
atomic dict operations; concurrent writers always store identical values
(the recursion is deterministic), so insert-or-get is last-writer
equivalent and needs no locking.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Generator, Iterable, Iterator

from .index import HurwitzIndex, Profile, admit, canonical_profile, edge_count

__all__ = [
    "MemoTable",
    "WORK_BUDGET",
    "arrowed_hurwitz",
    "check_budget",
    "jpt_h01",
    "jpt_h02",
    "orbifold_hurwitz",
    "partitions",
    "tree_number",
]

_ZERO = Fraction(0)

# Largest cost bound (see ``_cost_bound``) a query may have; larger ones
# are refused before any evaluation.  The slowest accepted queries, such
# as r = 1, g = 0, mu = (1,) * 27, take 9.5-14 s as a CLI run on a shared
# 2-vCPU Xeon VM under CPython 3.11.7 (11.7, 12.6 and 14.0 s in one set of
# three, 9.5-10.3 s in a quieter one); the largest bound in the r = 2,
# g <= 2, d <= 20 table is 276,660.
WORK_BUDGET = 500_000


class MemoTable:
    """Cache of arrowed counts keyed by (r, g, mu sorted descending).

    Entries are the integers E = s! * arrowed for every evaluated state
    with s >= 1, zeros included; ``lookup`` divides by s! and returns the
    ``Fraction``.  Canonicalizing mu is sound because the count is
    invariant under every permutation of the profile (vertex labels are
    interchangeable).  Stored values never change once inserted; any two
    writers racing on a key would store the same int, so no locking is
    required.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[tuple[int, int, Profile], int] = {}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: tuple[int, int, Iterable[int]]) -> bool:
        r, g, mu = key
        return (r, g, canonical_profile(mu)) in self._table

    def lookup(self, r: int, g: int, mu: Iterable[int]) -> Fraction | None:
        mu = canonical_profile(mu)
        value = self._table.get((r, g, mu))
        if value is None:
            return None
        return Fraction(value, factorial(edge_count(r, g, mu)))


def _submultiset_splits(
    rest: Profile,
) -> list[tuple[Profile, Profile, int, int, int]]:
    """All ways to split the multiset ``rest`` into an ordered pair (I, J).

    ``rest`` is sorted descending.  Returns (I, J, ways, deg I, len I)
    tuples, I and J sorted descending, where ``ways`` counts the index
    subsets realizing the sub-multiset I, i.e. the product of binomials
    over the distinct part values.  The splits are built one distinct
    value at a time, so their number is the product of (multiplicity + 1)
    over the distinct parts instead of 2^n.
    """
    splits: list[tuple[Profile, Profile, int, int, int]] = [((), (), 1, 0, 0)]
    n = len(rest)
    start = 0
    while start < n:
        v = rest[start]
        end = start + 1
        while end < n and rest[end] == v:
            end += 1
        m = end - start
        start = end
        splits = [
            (left + (v,) * k, right + (v,) * (m - k), ways * comb(m, k),
             degree + v * k, length + k)
            for left, right, ways, degree, length in splits
            for k in range(m + 1)
        ]
    return splits


def _insert(parts: Profile, value: int) -> Profile:
    """``parts``, sorted descending, with ``value`` inserted in order."""
    if not parts or parts[0] <= value:
        return (value,) + parts
    if parts[-1] >= value:
        return parts + (value,)
    i = 1
    while parts[i] > value:
        i += 1
    return parts[:i] + (value,) + parts[i:]


def _known(r: int, g: int, mu: Profile, table: dict) -> int | None:
    """E(r, g, mu) for canonical mu when no evaluation is needed.

    That is a memo hit, 0 outside the domain (r does not divide d, or
    g < 0), or the seed at s = 0: one vertex, no edges, all r dots at that
    vertex.  Returns None on a memo miss.
    """
    value = table.get((r, g, mu))
    if value is not None:
        return value
    s = edge_count(r, g, mu)
    if s is None or g < 0:
        return 0
    if s == 0:
        return 1 if (g == 0 and mu == (r,)) else 0
    return None


def _contraction(
    r: int, g: int, mu: Profile, table: dict
) -> Generator[tuple[int, Profile], int, int]:
    """Evaluate E(r, g, mu) = s! * arrowed(r, g, mu) for a memo miss.

    Contracting one of the s labeled edges gives E as plain integer sums
    over states one edge down.  The generator yields the (g, mu) of each
    child that is not yet known and expects its E sent back; it stores its
    own result in ``table`` before returning it.  Each child is looked up
    in ``table`` first and goes through ``_known`` only on a miss.
    """
    s = edge_count(r, g, mu)
    n = len(mu)
    # Identical parts give identical contributions, so work on the runs of
    # equal parts: (value, index of its first part, multiplicity).
    runs: list[tuple[int, int, int]] = []
    start = 0
    while start < n:
        end = start
        while end < n and mu[end] == mu[start]:
            end += 1
        runs.append((mu[start], start, end - start))
        start = end

    # Contract an edge joining two distinct vertices: parts mu_i and mu_j
    # merge, one term per pair of part values.
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
            merged = _insert(mu[:i] + mu[i + 1 : j] + mu[j + 1 :], u + v)
            assert edge_count(r, g, merged) == s - 1
            child = table.get((r, g, merged))
            if child is None:
                child = _known(r, g, merged, table)
                if child is None:
                    child = yield g, merged
            acc += pairs * u * v * child

    # Contract a loop at one vertex: mu_i breaks into a + b, and the loop
    # either cuts a handle (genus drops) or separates the surface (the
    # remaining parts distribute over the two sides, and the s - 1 other
    # edge labels with them).
    loop_acc = 0
    # C(s - 1, k): the ways to hand k of the other edge labels to one side
    binom = [comb(s - 1, k) for k in range(s)]
    for value, start, mult in runs:
        if value < 2:
            continue
        # dropping one copy of value keeps the descending order
        rest = mu[:start] + mu[start + 1 :]
        inner = 0
        for a in range(1, value):
            handle = _insert(_insert(rest, a), value - a)
            assert edge_count(r, g - 1, handle) in (None, s - 1)
            child = table.get((r, g - 1, handle))
            if child is None:
                child = _known(r, g - 1, handle, table)
                if child is None:
                    child = yield g - 1, handle
            inner += child
        # A separating loop needs r | deg mu1 = a + deg I (then r | deg mu2
        # too), so each split steps a through that residue class only.
        for left, right, ways, degree, length in _submultiset_splits(rest):
            for a in range(r - degree % r, value, r):
                mu1 = _insert(left, a)
                # edge count of (0, mu1); at genus g1 it is s1 + 2 g1
                s1 = (a + degree) // r + length - 1
                mu2 = _insert(right, value - a)
                assert s1 + edge_count(r, g, mu2) == s - 1
                for g1 in range(g + 1):
                    lhs = table.get((r, g1, mu1))
                    if lhs is None:
                        lhs = _known(r, g1, mu1, table)
                        if lhs is None:
                            lhs = yield g1, mu1
                    if not lhs:
                        continue
                    rhs = table.get((r, g - g1, mu2))
                    if rhs is None:
                        rhs = _known(r, g - g1, mu2, table)
                        if rhs is None:
                            rhs = yield g - g1, mu2
                    if rhs:
                        inner += ways * binom[s1 + 2 * g1] * lhs * rhs
        loop_acc += value * mult * inner

    # The loop sum runs over ordered splits a + b and so counts every loop
    # twice; an odd sum would mean the recursion itself is wrong.
    half, odd = divmod(loop_acc, 2)
    if odd:
        raise ArithmeticError(f"odd loop sum at r={r} g={g} mu={mu}")
    result = acc + half
    table[(r, g, mu)] = result
    return result


def _scaled(r: int, g: int, mu: Profile, table: dict) -> int:
    """E(r, g, mu) for canonical mu, evaluated on an explicit stack.

    The stack holds the suspended evaluation of every state whose child is
    being computed, so only descendants of (r, g, mu) are visited and the
    Python call depth stays constant however deep the recursion in s goes.
    """
    value = _known(r, g, mu, table)
    if value is not None:
        return value
    stack = [_contraction(r, g, mu, table)]
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(_contraction(r, *child, table))
            value = None
    return value


@lru_cache(maxsize=4096)
def _cost_bound(r: int, g: int, d: int, parts: int) -> int | None:
    """A query's cost bound, or None once it is known to exceed WORK_BUDGET.

    Every state reachable from genus g, degree d and n parts has genus at
    most g, a degree k <= d divisible by r, and at most n + g parts: a
    merge removes a part, a handle trades a genus for a part, and each
    side of a separating loop keeps at most n parts.  So

        (g + 1) * sum_{k <= d, r | k} p(k; at most n + g parts)

    bounds the memo states, and ``parts`` is n + g.  Each state tries
    fewer than d loop splits a + b, each with up to g + 1 genus splits, so
    the cost bound is that state bound times d * (g + 1).  The partition
    counts come from the usual table over part sizes, abandoned as soon as
    the bound is over.
    """
    scale = d * (g + 1) ** 2
    if d // r * scale > WORK_BUDGET:
        return None
    ways = [1] + [0] * d
    for part in range(1, min(parts, d) + 1):
        for k in range(part, d + 1):
            ways[k] += ways[k - part]
        cost = sum(ways[r::r]) * scale
        if cost > WORK_BUDGET:
            return None
    return cost


def check_budget(r: int, g: int, d: int, n: int) -> int:
    """The cost bound of a query (r, g, mu) with n parts of degree d;
    raises :class:`BudgetExceededError` when it exceeds WORK_BUDGET.

    The bound grows with g, d and n, so a caller with many queries can
    check the largest of each before doing any work.  Queries with
    s = 2g - 2 + d/r + n = 0 (the seed or 0) and those with r not
    dividing d (0) evaluate nothing and always pass, at cost 0.
    """
    if r < 1 or g < 0 or not 1 <= n <= d:
        raise ValueError(f"no query has r={r} g={g} d={d} n={n}")
    if d % r or 2 * g - 2 + d // r + n == 0:
        return 0
    what = f"r={r} g={g} d={d} n={n}"
    return admit(what, _cost_bound(r, g, d, n + g), WORK_BUDGET, "recursion")


def arrowed_hurwitz(idx: HurwitzIndex, memo: MemoTable | None = None) -> Fraction:
    """Arrowed Hurwitz count for ``idx``, memoized in ``memo``.

    Out-of-range queries evaluate to 0: non-divisible degree, negative
    genus, or negative edge count.  At s = 0 the value is 1 exactly for
    (g, n, mu) = (0, 1, (r)) and 0 otherwise.

    Raises :class:`BudgetExceededError`, before evaluating anything, when
    the query's cost bound exceeds WORK_BUDGET (see :func:`check_budget`).
    """
    if memo is None:
        memo = MemoTable()
    r, g = idx.r, idx.g
    mu = canonical_profile(idx.mu)
    s = edge_count(r, g, mu)
    if s is None:
        return _ZERO
    check_budget(r, g, idx.d, idx.n)
    return Fraction(_scaled(r, g, mu, memo._table), factorial(s))


def orbifold_hurwitz(idx: HurwitzIndex, memo: MemoTable | None = None) -> Fraction:
    """Orbifold Hurwitz number: the arrowed count divided by mu_1 * ... * mu_n."""
    value = arrowed_hurwitz(idx, memo)
    scale = 1
    for p in idx.mu:
        scale *= p
    return value / scale


@lru_cache(maxsize=None)
def tree_number(d: int) -> int:
    """Number of trees on d labeled nodes, via edge elimination.

    Removing one of the d - 1 edges splits a tree into an a-node and a
    b-node piece; reconnecting gives

        (d - 1) T_d = (1/2) * sum_{a+b=d} a b C(d, a) T_a T_b,   T_1 = 1.

    The quotient must be integral; a remainder raises ArithmeticError.
    The smaller values are cached in increasing order first, so no call
    nests more than one level deep.  The work is held to the budget of the
    one-part genus-0 query of degree d (see :func:`check_budget`).
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d == 1:
        return 1
    check_budget(1, 0, d, 1)
    for smaller in range(2, d):
        tree_number(smaller)
    rhs = 0
    for a in range(1, d):
        b = d - a
        rhs += a * b * comb(d, a) * tree_number(a) * tree_number(b)
    value, remainder = divmod(rhs, 2 * (d - 1))
    if remainder:
        raise ArithmeticError(f"non-integral tree count at d={d}")
    return value


def jpt_h01(r: int, d: int) -> Fraction:
    """Closed form for the one-part orbifold Hurwitz number in genus 0.

    Equals d^(floor(d/r) - 2) / floor(d/r)! when r | d, and 0 otherwise
    (a cover needs d/r orbifold points upstairs).
    """
    if r < 1 or d < 1:
        raise ValueError("r and d must be positive")
    if d % r:
        return _ZERO
    m = d // r
    e = m - 2
    power = Fraction(d) ** e
    return power / factorial(m)


def jpt_h02(r: int, mu1: int, mu2: int) -> Fraction:
    """Closed form for the two-part orbifold Hurwitz number in genus 0.

    With <q> the fractional part of q, the value for r | (mu1 + mu2) is

        r^(<mu1/r> + <mu2/r>) * mu1^floor(mu1/r) * mu2^floor(mu2/r)
        / ((mu1 + mu2) * floor(mu1/r)! * floor(mu2/r)!)

    and 0 otherwise.  The exponent <mu1/r> + <mu2/r> is 0 or 1 whenever
    the divisibility holds, so the prefactor is integral.
    """
    if r < 1 or mu1 < 1 or mu2 < 1:
        raise ValueError("r, mu1, mu2 must be positive")
    if (mu1 + mu2) % r:
        return _ZERO
    frac_exponent = ((mu1 % r) + (mu2 % r)) // r
    prefactor = r**frac_exponent
    f1 = mu1 // r
    f2 = mu2 // r
    return Fraction(prefactor * mu1**f1 * mu2**f2, (mu1 + mu2) * factorial(f1) * factorial(f2))


def partitions(d: int, max_parts: int | None = None, max_part: int | None = None) -> Iterator[Profile]:
    """Yield the partitions of d as descending tuples.

    ``max_parts`` bounds the length, ``max_part`` the largest entry.
    """
    if d < 0:
        return
    if d == 0:
        yield ()
        return
    limit = d if max_part is None else min(d, max_part)
    if max_parts is not None and max_parts < 1:
        return
    remaining_parts = None if max_parts is None else max_parts - 1
    for first in range(limit, 0, -1):
        for tail in partitions(d - first, remaining_parts, first):
            yield (first,) + tail
