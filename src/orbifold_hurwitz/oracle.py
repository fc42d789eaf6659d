"""Hurwitz numbers by counting monodromy factorizations in S_d.

A degree-d cover with r-fold orbifold structure over one point, labeled
profile mu over a second, and s simple branch points corresponds to a
tuple in the symmetric group S_d:

    sigma_0 * tau_1 * ... * tau_s * sigma_inf = identity,

where sigma_0 has cycle type (r, ..., r), each tau_k is a transposition,
sigma_inf has cycle type mu, the subgroup generated by sigma_0 and the
tau_k acts transitively on the d sheets (connectedness), and a labeling
assigns each of the n part labels to a cycle of sigma_inf of matching
length.  Dividing the labeled-tuple count by d! (cover isomorphisms) and
s! (unordered simple branch points) yields the orbifold Hurwitz number.
The 1/(d! s!) normalization is pinned down by three anchor values checked
in the test suite: the one-part base case 1/r, the two-part value 3/2 at
(r, mu) = (2, (3, 1)), and 2/3 at (r, mu) = (1, (2, 1)).

Conjugating every permutation of a tuple by one element of S_d maps
tuples to tuples and keeps every condition above (Lando-Zvonkin, *Graphs
on Surfaces and Their Applications*, App. A), and conjugation reaches
every sigma_0 of type (r, ..., r).  So each sigma_0 starts equally many
tuples: the count pins sigma_0 to the block representative
(0 1 ... r-1)(r ... 2r-1)... and multiplies by the size of its conjugacy
class.

:func:`raw_tuple_count` counts layer by layer instead of visiting each of
the C(d, 2)^s transposition sequences.  After k steps it keeps one number
per state (partial product sigma_0 tau_1 ... tau_k, orbits of the sheets
under sigma_0, tau_1, ..., tau_k): how many prefixes reach that state.  A
step applies every transposition and merges the two orbits it joins, and
a state from which s - k further steps can no longer reach n cycles in one
orbit is dropped.  The tuples left at the end are those whose product has
cycle type mu in a single orbit.  This is the module's one way to
count; the tests keep a sequence-by-sequence enumeration as the
brute-force reference they hold it to.  Before counting,
:func:`count_monodromy_tuples` hands :func:`~orbifold_hurwitz.index.admit`
the instance's :func:`estimated_steps`, which refuses them over
``ORACLE_BUDGET``.

This module is deliberately independent of the edge-contraction recursion:
it imports only :mod:`orbifold_hurwitz.index`, never
:mod:`orbifold_hurwitz.core`, and exact counting in S_d is the whole
point.  Everything is deterministic and single-threaded.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

from .index import HurwitzIndex, admit

__all__ = [
    "ORACLE_BUDGET",
    "count_monodromy_tuples",
    "count_of_cycle_type",
    "cycle_type",
    "estimated_steps",
    "label_assignment_count",
    "raw_tuple_count",
    "steps_within",
]

Perm = tuple[int, ...]

# Largest estimated_steps an instance (or a whole verify run) may have;
# larger ones are refused before any counting.  Every instance with
# r <= 3, d <= 12, s <= 30 that the budget of the sequence-by-sequence
# enumeration (the tests' brute-force reference) admitted stays within it
# (the largest, d = 9 and s = 4, estimates 15,549,760).  The estimate is a
# loose upper bound: the slowest admitted instance found with r <= 6,
# d <= 14, s <= 30, r = 4, g = 2, mu = (7, 1), s = 6 (23 M), took 1.4 s on
# a 2-vCPU Xeon with CPython 3.11.  With counts past one word charged per
# word, the largest admitted r = 1 instances with three, four and five
# sheets (s = 7,030, 1,069, 125) took 0.5-1.2 s there, and r = 2 with six
# sheets (s = 121) up to 1.9 s.
ORACLE_BUDGET = 3 * 10**7


def _cycle_labels(p: Perm) -> list[int]:
    """Each point's smallest cycle-mate, so equal partitions label equally."""
    labels = [-1] * len(p)
    for start in range(len(p)):
        v = start
        while labels[v] < 0:
            labels[v] = start
            v = p[v]
    return labels


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths of p, sorted descending."""
    return tuple(sorted(Counter(_cycle_labels(p)).values(), reverse=True))


def transpositions(d: int) -> list[Perm]:
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            p = list(range(d))
            p[a], p[b] = b, a
            out.append(tuple(p))
    return out


def count_of_cycle_type(d: int, lengths: tuple[int, ...]) -> int:
    """|{p in S_d : cycle type == lengths}| = d! / prod(l) / prod(mult!)."""
    if sum(lengths) != d:
        raise ValueError("cycle lengths must sum to d")
    return factorial(d) // (prod(lengths) * label_assignment_count(lengths))


def label_assignment_count(mu: tuple[int, ...]) -> int:
    """Number of bijections from cycles of matching type onto the labels.

    A permutation whose cycle lengths agree with mu as a multiset admits
    prod over distinct part sizes of (multiplicity)! labelings.
    """
    return prod(factorial(m) for m in Counter(mu).values())


def _bell(m: int) -> int:
    """Number of set partitions of m points, by the Bell triangle."""
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def estimated_steps(r: int, d: int, s: int) -> int:
    """Cost model for one count (see :func:`count_monodromy_tuples`):

        C(d, 2) * (d + sum_{k < s} min(C(d, 2)^k, (d!/2) * Bell(d/r))
                           * (d + k // w))
        + 200 * (s + 1),

    where w is the largest j with C(d, 2)^j < 2^64 (k // w is 0 for d <= 2).

    Building the C(d, 2) transpositions takes d steps each.  Layer k holds
    at most C(d, 2)^k states, one per prefix, and at most (d!/2) Bell(d/r):
    partial products of one parity times the orbit partitions coarser than
    the d/r cycles of sigma_0.  Each state takes one step per transposition,
    linear in d, and scanning the last layer costs no more than building
    it did.  The counts that step k adds are at most C(d, 2)^(k+1), so
    past the first 64-bit word they take k // w more, one step each; an
    instance whose counts fit one word is charged d per move.  The last
    term charges each layer's own bookkeeping and the 1/(d! s!)
    normalization, whose s! grows with s even where no state survives; it
    admits d = 2 up to s = 148,513, which took about 1 s on a 2-vCPU Xeon
    with CPython 3.11.
    """
    t = comb(d, 2)
    cap = factorial(d) // 2 * _bell(d // r) if s else 0
    # with t < 2 every count is 1 (or there is no move at all)
    w = max(j for j in range(1, 64) if t**j < 1 << 64) if t > 1 else s + 1

    def extra_words(k: int) -> int:
        """sum of i // w over i < k."""
        q, rem = divmod(k, w)
        return w * q * (q - 1) // 2 + rem * q

    work, width = d, 1
    for k in range(s):
        if width >= cap or t < 2:
            # every later layer is as wide as this one
            work += min(width, cap) * (d * (s - k) + extra_words(s) - extra_words(k))
            break
        work += width * (d + k // w)
        width *= t
    return t * work + 200 * (s + 1)


def steps_within(r: int, d: int, s: int, room: int) -> int | None:
    """``estimated_steps(r, d, s)`` when it is at most ``room``, else None.

    Every term of the estimate's sum is at least 1, so it is at least
    (d * C(d, 2) + 200) * (s + 1); an instance over ``room`` by that alone
    is answered None at once, however large s is.
    """
    if (d * comb(d, 2) + 200) * (s + 1) > room:
        return None
    steps = estimated_steps(r, d, s)
    return steps if steps <= room else None


def _pinned_sigma0(r: int, mu: tuple[int, ...], s: int) -> Perm:
    """Validate the data and return the block representative
    (0 1 ... r-1)(r ... 2r-1)... of type (r, ..., r)."""
    d = sum(mu)
    if d % r:
        raise ValueError("r must divide the profile degree")
    if s < 0:
        raise ValueError("s must be non-negative")
    return tuple(v + 1 if (v + 1) % r else v + 1 - r for v in range(d))


def _layered_count(
    sigma0: Perm, target: tuple[int, ...], s: int, require_transitive: bool
) -> int:
    """Number of transposition sequences tau_1, ..., tau_s for which
    sigma0 tau_1 ... tau_s has cycle type ``target`` and, if required,
    sigma0 and the taus act transitively.

    ``layer`` maps (partial product, orbit labels) to the number of
    prefixes reaching it; the labels give each sheet the smallest sheet of
    its orbit.  Without the transitivity filter every sheet starts in one
    orbit, so the labels never change.  Each step changes the number of
    cycles by one (a split when both sheets share a cycle, else a join)
    and merges at most one pair of orbits, and only a join can; a move
    after which the steps left cannot reach len(target) cycles in one
    orbit is skipped.
    """
    d, n = len(sigma0), len(target)
    moves = []
    for tau in transpositions(d):
        a, b = (v for v in range(d) if tau[v] != v)
        moves.append((a, b, tau.__getitem__))

    def reachable(cycles: int, orbits: int, left: int) -> bool:
        # (left + cycles - n) / 2 of the steps left are joins, and each of
        # the orbits - 1 merges still needed takes one
        return abs(cycles - n) <= left and 2 * (orbits - 1) <= left + cycles - n

    start = tuple(_cycle_labels(sigma0)) if require_transitive else (0,) * d
    layer = {(sigma0, start): 1}
    for left in range(s - 1, -1, -1):
        if not layer:
            break
        nxt: dict[tuple[Perm, tuple[int, ...]], int] = {}
        for (p, orbit), ways in layer.items():
            cyc = _cycle_labels(p)
            cycles = sum(1 for v, c in enumerate(cyc) if v == c)
            orbits = sum(1 for v, o in enumerate(orbit) if v == o)
            split = reachable(cycles + 1, orbits, left)
            join = reachable(cycles - 1, orbits, left)
            merge = reachable(cycles - 1, orbits - 1, left)
            for a, b, tau in moves:
                if cyc[a] == cyc[b]:
                    if not split:
                        continue
                    after = orbit
                elif orbit[a] == orbit[b]:
                    if not join:
                        continue
                    after = orbit
                else:
                    if not merge:
                        continue
                    low, high = sorted((orbit[a], orbit[b]))
                    after = tuple(low if o == high else o for o in orbit)
                key = (tuple(map(tau, p)), after)
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    # sigma_inf, the inverse of the product, has the product's cycle type
    return sum(
        ways
        for (p, orbit), ways in layer.items()
        if not any(orbit) and cycle_type(p) == target
    )


def raw_tuple_count(
    r: int, mu: tuple[int, ...], s: int, require_transitive: bool = True
) -> int:
    """Labeled monodromy tuples for the given data.

    Counts tuples (sigma_0, tau_1, ..., tau_s) with sigma_0 of type
    (r, ..., r), tau_k transpositions, whose product inverse has cycle
    type mu, weighted by the :func:`label_assignment_count` labelings:
    the block representative's count times the class size.  The
    transitivity filter can be dropped for diagnostics.
    """
    pinned = _pinned_sigma0(r, mu, s)
    target = tuple(sorted(mu, reverse=True))
    d = len(pinned)
    count = _layered_count(pinned, target, s, require_transitive)
    return count * count_of_cycle_type(d, (r,) * (d // r)) * label_assignment_count(mu)


def count_monodromy_tuples(idx: HurwitzIndex) -> Fraction:
    """Orbifold Hurwitz number by counting monodromy factorizations.

    Raises :class:`~orbifold_hurwitz.index.DivisibilityError` when r does
    not divide d, and refuses with :class:`BudgetExceededError` (never
    counting partially) when the estimated steps exceed
    ``ORACLE_BUDGET``.
    """
    d, s = idx.d, idx.s
    what = f"r={idx.r} g={idx.g} d={d} s={s}"
    admit(what, steps_within(idx.r, d, s, ORACLE_BUDGET), ORACLE_BUDGET, "oracle")
    raw = raw_tuple_count(idx.r, idx.mu, s)
    return Fraction(raw, factorial(d) * factorial(s))
