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
_ONE = Fraction(1)

# Largest cost bound (see ``_cost_bound``) a query may have; larger ones
# are refused before any evaluation.  Among the slowest accepted queries,
# r = 1, g = 0, mu = (1,) * 27 (bound 398,007) takes 3.6-3.8 s as a CLI run
# on a shared 2-vCPU Xeon VM under CPython 3.11.7; the largest bound in
# the r = 2, g <= 2, d <= 20 table is 276,660.
WORK_BUDGET = 500_000


class MemoTable:
    """Cache of arrowed counts, one dict per (r, g) keyed by profile code.

    Entries are the integers E = s! * arrowed for every evaluated state
    with s >= 1, zeros included; ``lookup`` divides by s! and returns the
    ``Fraction``.  A profile's code (see ``_unit``) depends only on its
    multiset of parts, which is sound because the count is invariant under
    every permutation of the profile (vertex labels are interchangeable).
    Stored values never change once inserted; any two writers racing on a
    key would store the same int, so no locking is required.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[tuple[int, int], dict[int, int]] = {}

    def __len__(self) -> int:
        return sum(map(len, self._table.values()))

    def _get(self, r: int, g: int, mu: Profile) -> int | None:
        layer = self._table.get((r, g))
        # a profile whose code would overflow a field is never stored
        if layer is None or len(mu) > _PARTS or sum(mu) + r * len(mu) > _HEADER:
            return None
        return layer.get(_encode(r, mu))

    def __contains__(self, key: tuple[int, int, Iterable[int]]) -> bool:
        r, g, mu = key
        return self._get(r, g, canonical_profile(mu)) is not None

    def lookup(self, r: int, g: int, mu: Iterable[int]) -> Fraction | None:
        mu = canonical_profile(mu)
        value = self._get(r, g, mu)
        if value is None:
            return None
        return Fraction(value, factorial(edge_count(r, g, mu)))


# Inside the recursion a profile of degree d with n parts is one int, its
# code: the multiplicity of part value v in the _W-bit field at bit
# _HEAD + _W * (v - 1), above a header holding d + r * n, which is
# r * (s - 2g + 2) at genus g.  Adding a part v is ``code + _unit(r, v)``,
# and merging parts u and v is
# ``code - _unit(r, u) - _unit(r, v) + _unit(r, u + v)``; a grading
# assert checks a child's edge count against the child's own header.
# No field may overflow.  A state reachable from (g, mu) has degree at
# most d and at most m = min(d, n + g) parts, so at most m equal ones and
# a header at most d + r * m.  check_budget refuses m > 255, since p(256)
# exceeds WORK_BUDGET, and d > WORK_BUDGET, so with r <= d the header
# stays below 2^27; ``_scaled`` asserts both bounds once per query.
_W = 8  # one byte per field, so ``int.to_bytes`` reads them off
_HEAD = 32
_PARTS = (1 << _W) - 1
_HEADER = (1 << _HEAD) - 1


@lru_cache(maxsize=4096)
def _unit(r: int, v: int) -> int:
    """The code of the one-part profile (v,) at orbifold order r."""
    return (1 << (_HEAD + _W * (v - 1))) + v + r


def _encode(r: int, mu: Profile) -> int:
    return sum(_unit(r, p) for p in mu)


def _runs(code: int) -> list[tuple[int, int]]:
    """(value, multiplicity) of each distinct part of a code, ascending."""
    fields = code >> _HEAD
    return [
        (v, m)
        for v, m in enumerate(fields.to_bytes((fields.bit_length() + 7) // 8, "little"), 1)
        if m
    ]


def _decode(code: int) -> Profile:
    """The profile of a code, sorted descending."""
    return tuple(v for v, m in reversed(_runs(code)) for _ in range(m))


def _submultiset_splits(
    r: int, runs: list[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """All ways to split a multiset into an ordered pair (I, J).

    The multiset is given by its ``runs``, (value, multiplicity) pairs.
    Returns (code of I, code of J, ways) triples, codes at orbifold order
    r, where ``ways`` counts the index subsets realizing the sub-multiset
    I, i.e. the product of binomials over the distinct part values.  The
    splits are built one distinct value at a time, so their number is the
    product of (multiplicity + 1) over the distinct parts instead of 2^n.
    They are listed in mixed radix, so ``splits[last - i]`` is the
    complement (J, I) of ``splits[i]``.
    """
    splits = [(0, 0, 1)]
    for v, m in runs:
        unit = _unit(r, v)
        # k copies of v to I: their code, the code of the m - k left to J,
        # and the ways to pick them
        picks = [(k * unit, (m - k) * unit, comb(m, k)) for k in range(m + 1)]
        splits = [
            (left + pick, right + other, ways * more)
            for left, right, ways in splits
            for pick, other, more in picks
        ]
    return splits


def _contraction(
    r: int, g: int, code: int, layers: list[dict[int, int]]
) -> Generator[tuple[int, int], int, int]:
    """Evaluate E(r, g, mu) = s! * arrowed(r, g, mu) for a memo miss.

    ``code`` is mu's code and ``layers[h]`` the memo of genus h.
    Contracting one of the s labeled edges gives E as plain integer sums
    over states one edge down.  The generator yields the (g, code) of each
    child that is neither stored nor the seed and expects its E sent back;
    it stores its own result in ``layers[g]`` before returning it.
    """
    s = (code & _HEADER) // r + 2 * g - 2
    # the header of a genus-g child with s - 1 edges
    top = r * (s + 1 - 2 * g)
    runs = _runs(code)
    here = layers[g]
    # the genus splits g1 + g2 = g of a separating loop, with their memos'
    # lookups
    genera = [(g1, layers[g1].get, g - g1, layers[g - g1].get) for g1 in range(g + 1)]
    # the seed (0, (r,)), the one state at s = 0, is never stored
    seed = _unit(r, r)

    # Contract an edge joining two distinct vertices: parts mu_i and mu_j
    # merge, one term per pair of part values.
    acc = 0
    for x, (u, mult_u) in enumerate(runs):
        for v, mult_v in runs[x:]:
            pairs = mult_u * (mult_u - 1) // 2 if v == u else mult_u * mult_v
            if not pairs:
                continue
            merged = code - _unit(r, u) - _unit(r, v) + _unit(r, u + v)
            assert merged & _HEADER == top
            child = here.get(merged)
            if child is None:
                child = 1 if merged == seed and not g else (yield g, merged)
            acc += pairs * u * v * child

    # Contract a loop at one vertex: mu_i breaks into a + b, and the loop
    # either cuts a handle (genus drops) or separates the surface (the
    # remaining parts distribute over the two sides, and the s - 1 other
    # edge labels with them).  Both sums are invariant under the
    # involution (a, I, g1) <-> (b, J, g - g1): the handle child is
    # symmetric in a and b, ways(I) = ways(J), and C(s - 1, k) =
    # C(s - 1, s - 1 - k).  So each orbit is visited once, through its
    # representative with a <= b, and with split index i <= last - i; the
    # terms of two-element orbits go into ``twice``, the fixed points into
    # ``diag``, and the sum over ordered splits is 2 * twice + diag.
    twice = diag = 0
    # C(s - 1, k): the ways to hand k of the other edge labels to one side
    binom = [comb(s - 1, k) for k in range(s)]
    for x, (value, mult) in enumerate(runs):
        if value < 2:
            continue
        off = fixed = 0
        if g:
            rest = code - _unit(r, value)
            below = layers[g - 1]
            for a in range(1, value // 2 + 1):
                # a handle child has n + 1 >= 2 parts, so it is no seed
                handle = rest + _unit(r, a) + _unit(r, value - a)
                assert handle & _HEADER == top + 2 * r
                child = below.get(handle)
                if child is None:
                    child = yield g - 1, handle
                if 2 * a == value:
                    fixed += child
                else:
                    off += child
        splits = _submultiset_splits(
            r, runs[:x] + [(value, mult - 1)] * (mult > 1) + runs[x + 1 :]
        )
        last = len(splits) - 1
        # A separating loop needs r | deg mu1 = a + deg I (then r | deg mu2
        # too), so each split steps a through that residue class only.  The
        # steps (code (a,), code (b,), a = b) of a class are shared by its
        # splits, and the middle split, its own complement, takes the
        # ``lower`` ones, with a <= b.
        walks = {}
        for i in range(last // 2 + 1):
            left, right, ways = splits[i]
            # the orbit's other half would count ways(J) instead
            if ways != splits[last - i][2]:
                raise ArithmeticError(f"odd loop sum at r={r} g={g} mu={_decode(code)}")
            # deg I = header of I (mod r)
            residue = (left & _HEADER) % r
            found = walks.get(residue)
            if found is None:
                found = walks[residue] = (
                    [
                        (_unit(r, a), _unit(r, value - a), 2 * a == value)
                        for a in range(r - residue, value, r)
                    ],
                    len(range(r - residue, value // 2 + 1, r)),
                )
            walk, lower = found
            mirror = 2 * i == last
            inner = 0
            for unit_a, unit_b, middle in walk[:lower] if mirror else walk:
                mu1 = left + unit_a
                mu2 = right + unit_b
                # the edge count of (0, mu1), off its header; r divides the
                # header, and at genus g1 the count is s1 + 2 g1
                s1 = (mu1 & _HEADER) // r - 2
                assert mu1 & _HEADER == r * (s1 + 2)
                assert mu2 & _HEADER == top - r * s1
                on_diag = mirror and middle
                for g1, get1, g2, get2 in genera[: g // 2 + 1] if on_diag else genera:
                    lhs = get1(mu1)
                    if lhs is None:
                        lhs = 1 if mu1 == seed and not g1 else (yield g1, mu1)
                    rhs = get2(mu2)
                    if rhs is None:
                        rhs = 1 if mu2 == seed and not g2 else (yield g2, mu2)
                    if lhs and rhs:
                        if on_diag and g1 == g2:
                            fixed += ways * binom[s1 + 2 * g1] * lhs * rhs
                        else:
                            inner += binom[s1 + 2 * g1] * lhs * rhs
            off += ways * inner
        twice += value * mult * off
        diag += value * mult * fixed

    # The ordered sum 2 * twice + diag counts every loop twice; an odd diag
    # would make it odd, which would mean the recursion itself is wrong.
    half, odd = divmod(diag, 2)
    if odd:
        raise ArithmeticError(f"odd loop sum at r={r} g={g} mu={_decode(code)}")
    result = acc + twice + half
    here[code] = result
    return result


def _scaled(r: int, g: int, mu: Profile, table: dict) -> int:
    """E(r, g, mu) for an admitted mu with s >= 1, on an explicit stack.

    The stack holds the suspended evaluation of every state whose child is
    being computed, so only descendants of (r, g, mu) are visited and the
    Python call depth stays constant however deep the recursion in s goes.
    """
    d = sum(mu)
    most = min(d, len(mu) + g)
    assert most <= _PARTS and d + r * most <= _HEADER
    code = _encode(r, mu)
    value = table.setdefault((r, g), {}).get(code)
    if value is not None:
        return value
    layers = [table.setdefault((r, h), {}) for h in range(g + 1)]
    stack = [_contraction(r, g, code, layers)]
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(_contraction(r, *child, layers))
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

    A degree d that r does not divide gives 0.  Otherwise s >= 2g >= 0,
    and s = 0 is the seed: it forces (g, n, mu) = (0, 1, (r)), whose value
    is 1.

    Raises :class:`BudgetExceededError`, before evaluating anything, when
    the query's cost bound exceeds WORK_BUDGET (see :func:`check_budget`).
    """
    if memo is None:
        memo = MemoTable()
    r, g, mu = idx.r, idx.g, idx.mu
    s = edge_count(r, g, mu)
    if s is None:
        return _ZERO
    check_budget(r, g, idx.d, idx.n)
    if s == 0:
        # the seed: one vertex, no edges, all r dots at it; s = 0 forces
        # (g, mu) = (0, (r,))
        return _ONE
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
