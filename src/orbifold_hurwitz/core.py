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
boundary, where E is divided by s!.  A profile's plan lists its children
and their weights, which do not depend on the genus; evaluating a state
replays the plan at its genus.  Evaluation runs on an explicit stack of
suspended per-state evaluations, so it never hits Python's recursion
limit.  A query is demand-driven: it visits only its descendants, and
each state builds its plan and drops it.  :func:`fill_table` fills a
whole table one degree at a time and keeps each plan for the degree it
belongs to, so every plan is built once and replayed at every genus.  Before
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
# r = 1, g = 0, mu = (1,) * 27 (bound 398,007) takes 2.6-2.7 s as a CLI run
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


@lru_cache(maxsize=1024)
def _picks(r: int, v: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """k copies of v to I, for k = 0..m: their code, the code of the m - k
    left to J, and the ways to pick them."""
    unit = _unit(r, v)
    return tuple((k * unit, (m - k) * unit, comb(m, k)) for k in range(m + 1))


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
        picks = _picks(r, v, m)
        splits = [
            (left + pick, right + other, ways * more)
            for left, right, ways in splits
            for pick, other, more in picks
        ]
    return splits


@lru_cache(maxsize=1024)
def _walk(r: int, residue: int, value: int) -> tuple[tuple[tuple[int, int, int], ...], int]:
    """The steps a + b = value of a separating loop whose side I has degree
    ``residue`` mod r: r | deg mu1 = a + deg I (then r | deg mu2 too), so a
    runs through one residue class.  Each step is (code (a,), code (b,),
    a); the first ``lower`` steps are those with a <= b."""
    steps = range(r - residue, value, r)
    units = tuple((_unit(r, a), _unit(r, value - a), a) for a in steps)
    return units, len(range(r - residue, value // 2 + 1, r))


@lru_cache(maxsize=256)
def _binomials(n: int) -> tuple[int, ...]:
    """C(n, k) for k = 0..n."""
    return tuple(comb(n, k) for k in range(n + 1))


def _plan(r: int, code: int) -> tuple[tuple[int, ...], ...]:
    """The children of the profile ``code`` and their weights, at any genus.

    Contracting one of the s labeled edges of a genus-g state gives
    E(r, g, mu) = s! * arrowed(r, g, mu) as plain integer sums over states
    one edge down.  Which states those are, and with which weights, depends
    on mu alone; only the genera of the children and the binomials C(s - 1,
    k) of a separating loop depend on g.  The plan holds four flat tuples,
    with every weight doubled so that the sum of a state is 2E:

    * ``merges``: (child, weight) for an edge joining two distinct
      vertices, whose parts mu_i and mu_j merge; the child has genus g.
    * ``handles``: (child, weight) for a loop at one vertex that cuts a
      handle, mu_i breaking into a + b; the child has genus g - 1.
    * ``pairs``: (mu1, mu2, s1, weight) for a separating loop whose sides
      are (g1, mu1) and (g - g1, mu2), for every g1, with s1 the edge
      count of (0, mu1); the s - 1 other edge labels distribute over the
      sides in C(s - 1, s1 + 2 g1) ways.
    * ``mirrored``: (mu1, s1, weight), the separating loops whose two
      sides have the same profile; their g1 runs to g // 2, and the
      weight is doubled below the middle g1 = g - g1.

    The loop sums are invariant under the involution (a, I, g1) <-> (b,
    J, g - g1): the handle child is symmetric in a and b, ways(I) =
    ways(J), and C(s - 1, k) = C(s - 1, s - 1 - k).  So each orbit is
    listed once, through its representative with a <= b, and with split
    index i <= last - i, at twice its weight; a fixed point is listed at
    its weight once.  Grading asserts check each child's edge count
    against its own header, and a split whose ways differ from its
    complement's raises, since then the halved sum is not the whole one.
    """
    header = code & _HEADER
    runs = _runs(code)
    merges = []
    for x, (u, mult_u) in enumerate(runs):
        for v, mult_v in runs[x:]:
            pairs = mult_u * (mult_u - 1) // 2 if v == u else mult_u * mult_v
            if not pairs:
                continue
            merged = code - _unit(r, u) - _unit(r, v) + _unit(r, u + v)
            assert merged & _HEADER == header - r
            merges += (merged, 2 * pairs * u * v)

    handles, pairs, mirrored = [], [], []
    for x, (value, mult) in enumerate(runs):
        if value < 2:
            continue
        weight = value * mult
        rest = code - _unit(r, value)
        for a in range(1, value // 2 + 1):
            # a handle child has n + 1 >= 2 parts, so it is no seed
            handle = rest + _unit(r, a) + _unit(r, value - a)
            assert handle & _HEADER == header + r
            handles += (handle, weight if 2 * a == value else 2 * weight)
        splits = _submultiset_splits(
            r, runs[:x] + [(value, mult - 1)] * (mult > 1) + runs[x + 1 :]
        )
        # splits[-1 - i] is the complement of splits[i], and the orbit's
        # other half would count its ways(J) instead of ways(I)
        ways_each = [ways for _, _, ways in splits]
        if ways_each != ways_each[::-1]:
            raise ArithmeticError(f"odd loop sum at r={r} mu={_decode(code)}")
        # the middle split, when there is one, is its own complement and
        # takes only the steps with a <= b
        half, middle = divmod(len(splits), 2)
        for i, (left, right, ways) in enumerate(splits[: half + middle]):
            # deg I = header of I (mod r)
            base = left & _HEADER
            walk, lower = _walk(r, base % r, value)
            mirror = i == half
            twice = 2 * ways * weight
            for unit_a, unit_b, a in walk[:lower] if mirror else walk:
                mu1 = left + unit_a
                mu2 = right + unit_b
                # the edge count of (0, mu1), off its header, which is
                # base + a + r; at genus g1 the count is s1 + 2 g1
                s1 = (base + a) // r - 1
                assert mu1 & _HEADER == r * (s1 + 2)
                assert mu2 & _HEADER == header - r - r * s1
                if mirror and 2 * a == value:
                    mirrored += (mu1, s1, ways * weight)
                else:
                    pairs += (mu1, mu2, s1, twice)
    return tuple(merges), tuple(handles), tuple(pairs), tuple(mirrored)


def _contraction(
    r: int, g: int, code: int, plan: tuple[tuple[int, ...], ...], layers: list[dict[int, int]]
) -> Generator[tuple[int, int], int, int]:
    """Evaluate E(r, g, mu) for a memo miss from mu's ``plan``.

    ``code`` is mu's code and ``layers[h]`` the memo of genus h.  The
    generator yields the (g, code) of each child that is neither stored
    nor the seed and expects its E sent back; it stores its own result in
    ``layers[g]`` before returning it.
    """
    merges, handles, pairs, mirrored = plan
    here = layers[g]
    # the seed (0, (r,)), the one state at s = 0, is never stored
    seed = _unit(r, r)
    total = 0
    it = iter(merges)
    for child_code, weight in zip(it, it):
        child = here.get(child_code)
        if child is None:
            child = 1 if child_code == seed and not g else (yield g, child_code)
        total += weight * child
    if g:
        below = layers[g - 1]
        it = iter(handles)
        for child_code, weight in zip(it, it):
            child = below.get(child_code)
            if child is None:
                child = yield g - 1, child_code
            total += weight * child
    # C(s - 1, k): the ways to hand k of the other edge labels to one side
    binom = _binomials((code & _HEADER) // r + 2 * g - 3)
    for g1 in range(g + 1):
        g2 = g - g1
        get1, get2 = layers[g1].get, layers[g2].get
        shifted = binom[2 * g1 :]
        it = iter(pairs)
        for mu1, mu2, s1, weight in zip(it, it, it, it):
            lhs = get1(mu1)
            if lhs is None:
                lhs = 1 if mu1 == seed and not g1 else (yield g1, mu1)
            rhs = get2(mu2)
            if rhs is None:
                rhs = 1 if mu2 == seed and not g2 else (yield g2, mu2)
            if lhs and rhs:
                total += weight * shifted[s1] * lhs * rhs
        if g1 <= g2:
            it = iter(mirrored)
            for mu1, s1, weight in zip(it, it, it):
                lhs = get1(mu1)
                if lhs is None:
                    lhs = 1 if mu1 == seed and not g1 else (yield g1, mu1)
                rhs = get2(mu1)
                if rhs is None:
                    rhs = 1 if mu1 == seed and not g2 else (yield g2, mu1)
                if lhs and rhs:
                    term = weight * shifted[s1] * lhs * rhs
                    total += term if g1 == g2 else 2 * term

    # Every loop is counted twice, so an odd total would mean the recursion
    # itself is wrong.
    result, odd = divmod(total, 2)
    if odd:
        raise ArithmeticError(f"odd loop sum at r={r} g={g} mu={_decode(code)}")
    here[code] = result
    return result


def _evaluate(
    r: int,
    g: int,
    code: int,
    layers: list[dict[int, int]],
    plans: dict[int, tuple] | None = None,
) -> int:
    """E(r, g, mu) for a state that is neither stored nor the seed, on an
    explicit stack.

    The stack holds the suspended evaluation of every state whose child is
    being computed, so only descendants of (r, g, mu) are visited and the
    Python call depth stays constant however deep the recursion in s goes.
    With ``plans`` each profile's plan is built once and kept there;
    without, each state builds its plan and drops it when it is done.
    """
    stack = []
    value = None
    while True:
        plan = None if plans is None else plans.get(code)
        if plan is None:
            plan = _plan(r, code)
            if plans is not None:
                plans[code] = plan
        stack.append(_contraction(r, g, code, plan, layers))
        value = None
        while stack:
            try:
                g, code = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                break
        else:
            return value


def _scaled(r: int, g: int, mu: Profile, table: dict) -> int:
    """E(r, g, mu) for an admitted mu with s >= 1, demand-driven."""
    d = sum(mu)
    most = min(d, len(mu) + g)
    assert most <= _PARTS and d + r * most <= _HEADER
    code = _encode(r, mu)
    value = table.setdefault((r, g), {}).get(code)
    if value is not None:
        return value
    layers = [table.setdefault((r, h), {}) for h in range(g + 1)]
    return _evaluate(r, g, code, layers)


def fill_table(r: int, g_min: int, g_max: int, degree_max: int, memo: MemoTable) -> None:
    """Store in ``memo`` the E of every state the table rows r, g_min <= g
    <= g_max, r | d <= degree_max reach, the same states the rows' own
    queries would store.

    The rows are evaluated one degree at a time, in ascending order, and
    within a degree genus by genus over ``partitions(d)``.  A profile's
    plan is built once and replayed at every genus; the plans are kept for
    one degree only, so the memory they hold is that of one degree's
    profiles.  Raises :class:`BudgetExceededError`, before evaluating
    anything, when the costliest row is over WORK_BUDGET.
    """
    top = degree_max - degree_max % r
    if not top:
        return
    check_budget(r, g_max, top, top)
    # no state reached has more than top parts
    assert top <= _PARTS and top + r * top <= _HEADER
    layers = [memo._table.setdefault((r, h), {}) for h in range(g_max + 1)]
    seed = _unit(r, r)
    for d in range(r, top + 1, r):
        plans = {}
        for g in range(g_min, g_max + 1):
            here = layers[g]
            for mu in partitions(d):
                code = _encode(r, mu)
                if code not in here and (g or code != seed):
                    _evaluate(r, g, code, layers, plans)


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
