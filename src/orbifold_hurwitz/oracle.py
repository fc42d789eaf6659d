"""Brute-force Hurwitz numbers by counting monodromy factorizations.

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
tuples: the enumeration pins sigma_0 to the block representative
(0 1 ... r-1)(r ... 2r-1)... and the count multiplies by the size of its
conjugacy class.  Before enumerating, :func:`count_monodromy_tuples`
refuses an instance whose :func:`estimated_steps` exceed ``ORACLE_BUDGET``.

This module is deliberately independent of the edge-contraction recursion:
it imports only :mod:`orbifold_hurwitz.index`, never
:mod:`orbifold_hurwitz.core`, and exact enumeration over S_d is the whole
point.  Everything is deterministic and single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial
from typing import Iterator

from .index import BudgetExceededError, HurwitzIndex

__all__ = [
    "ORACLE_BUDGET",
    "PermutationTuple",
    "count_monodromy_tuples",
    "count_of_cycle_type",
    "cycle_type",
    "enumerate_monodromy_tuples",
    "estimated_steps",
    "label_assignment_count",
    "raw_tuple_count",
]

Perm = tuple[int, ...]

# Largest estimated_steps an instance may have; larger ones are refused
# before any enumeration.  r = 1, mu = (6,), s = 5 (27 M steps) took
# 3.6 s on a 2-vCPU Xeon with CPython 3.11, so a count at the budget
# takes about 13 s.
ORACLE_BUDGET = 10**8


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[v] for v in p)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _cycles_of(p: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = []
        v = start
        while not seen[v]:
            seen[v] = True
            cycle.append(v)
            v = p[v]
        cycles.append(tuple(cycle))
    return cycles


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths of p, sorted descending."""
    return tuple(sorted(map(len, _cycles_of(p)), reverse=True))


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
    denom = 1
    mult: dict[int, int] = {}
    for length in lengths:
        denom *= length
        mult[length] = mult.get(length, 0) + 1
    for m in mult.values():
        denom *= factorial(m)
    return factorial(d) // denom


def label_assignment_count(mu: tuple[int, ...]) -> int:
    """Number of bijections from cycles of matching type onto the labels.

    A permutation whose cycle lengths agree with mu as a multiset admits
    prod over distinct part sizes of (multiplicity)! labelings.
    """
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    ways = 1
    for m in mult.values():
        ways *= factorial(m)
    return ways


def _enumerate_label_assignments(
    mu: tuple[int, ...], cycle_lengths: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All assignments pi with cycle_lengths[pi[i]] == mu[i], explicitly.

    pi[i] is the cycle (by position in ``cycle_lengths``) that receives
    label i.  Enumerated rather than computed by formula; the formula
    value is asserted against this in the tests.
    """
    n = len(mu)
    if n != len(cycle_lengths):
        return []
    return [
        pi
        for pi in permutations(range(n))
        if all(cycle_lengths[pi[i]] == mu[i] for i in range(n))
    ]


def _is_transitive(d: int, generators: list[Perm]) -> bool:
    """Orbit of the generated subgroup = connected components of i -- p(i)."""
    parent = list(range(d))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = d
    for p in generators:
        for i in range(d):
            ra, rb = find(i), find(p[i])
            if ra != rb:
                parent[ra] = rb
                components -= 1
    return components == 1


def estimated_steps(r: int, d: int, s: int) -> int:
    """Cost model for one pinned count: d * (C(d, 2) + (s + 1) * C(d, 2)^s).

    Building the C(d, 2) transpositions takes d steps each; each of the
    C(d, 2)^s transposition sequences then takes s products, one cycle
    type and one transitivity sweep, all linear in d.  r does not enter,
    because sigma_0 is pinned to a single representative.
    """
    t = comb(d, 2)
    return d * (t + (s + 1) * t**s)


@dataclass(frozen=True)
class PermutationTuple:
    """One labeled factorization: the monodromy data of a single cover.

    ``labels[i]`` is the index (into the cycles of ``sigma_inf``) of the
    cycle carrying label i; it has length mu[i].  The defining relations
    sigma_0 tau_1 ... tau_s sigma_inf = id and transitivity hold for
    every tuple produced by :func:`enumerate_monodromy_tuples`.
    """

    sigma0: Perm
    taus: tuple[Perm, ...]
    sigma_inf: Perm
    labels: tuple[int, ...]

    def product(self) -> Perm:
        p = self.sigma0
        for tau in self.taus:
            p = compose(p, tau)
        return compose(p, self.sigma_inf)

    def is_transitive(self) -> bool:
        return _is_transitive(len(self.sigma0), [self.sigma0, *self.taus])


def _pinned_sigma0(r: int, mu: tuple[int, ...], s: int, sigma0: Perm | None) -> Perm:
    """Validate the data and return sigma0, or the block representative
    (0 1 ... r-1)(r ... 2r-1)... when it is None."""
    d = sum(mu)
    if d % r:
        raise ValueError("r must divide the profile degree")
    if s < 0:
        raise ValueError("s must be non-negative")
    if sigma0 is None:
        return tuple(v + 1 if (v + 1) % r else v + 1 - r for v in range(d))
    if cycle_type(sigma0) != (r,) * (d // r):
        raise ValueError("sigma0 has the wrong cycle type")
    return sigma0


def _factorizations(
    sigma0: Perm, target: tuple[int, ...], s: int, require_transitive: bool
) -> Iterator[tuple[tuple[Perm, ...], Perm]]:
    """Yield (taus, sigma_inf) for every factorization starting with sigma0.

    The taus run over all transposition sequences of length s; sigma_inf
    is forced by the product relation and kept when its cycle type is
    ``target`` and, if required, the tuple acts transitively.
    """
    d = len(sigma0)
    for taus in product(transpositions(d), repeat=s):
        p = sigma0
        for tau in taus:
            p = compose(p, tau)
        sigma_inf = invert(p)
        if cycle_type(sigma_inf) != target:
            continue
        if require_transitive and not _is_transitive(d, [sigma0, *taus]):
            continue
        yield taus, sigma_inf


def enumerate_monodromy_tuples(
    r: int,
    mu: tuple[int, ...],
    s: int,
    require_transitive: bool = True,
    sigma0: Perm | None = None,
) -> Iterator[PermutationTuple]:
    """Yield every labeled factorization that starts with ``sigma0``.

    With ``sigma0=None`` that is the block representative
    (0 1 ... r-1)(r ... 2r-1)...; the tuples of any other sigma_0 of type
    (r, ..., r) are their conjugates, so ``raw_tuple_count`` is the number
    yielded here times ``count_of_cycle_type(d, (r,) * m)``.  Each valid
    cycle labeling is yielded separately.  The transitivity filter can be
    dropped for diagnostics.
    """
    pinned = _pinned_sigma0(r, mu, s, sigma0)
    target = tuple(sorted(mu, reverse=True))
    for taus, sigma_inf in _factorizations(pinned, target, s, require_transitive):
        lengths = tuple(len(c) for c in _cycles_of(sigma_inf))
        for labels in _enumerate_label_assignments(mu, lengths):
            yield PermutationTuple(pinned, taus, sigma_inf, labels)


def raw_tuple_count(
    r: int,
    mu: tuple[int, ...],
    s: int,
    require_transitive: bool = True,
    sigma0: Perm | None = None,
) -> int:
    """Labeled monodromy tuples for the given data.

    Counts tuples (sigma_0, tau_1, ..., tau_s) with sigma_0 of type
    (r, ..., r), tau_k transpositions, whose product inverse has cycle
    type mu, weighted by the explicitly enumerated cycle labelings.  With
    ``sigma0`` given, only the tuples starting with it count; otherwise
    every sigma_0 of the type does, as the block representative's count
    times the class size.  The transitivity filter can be dropped for
    diagnostics.
    """
    pinned = _pinned_sigma0(r, mu, s, sigma0)
    target = tuple(sorted(mu, reverse=True))
    # the labeling count depends only on the cycle type, so enumerate the
    # assignments once against a type representative instead of per tuple
    labelings = len(_enumerate_label_assignments(mu, target))
    count = sum(1 for _ in _factorizations(pinned, target, s, require_transitive))
    if sigma0 is None:
        d = len(pinned)
        count *= count_of_cycle_type(d, (r,) * (d // r))
    return count * labelings


def count_monodromy_tuples(idx: HurwitzIndex) -> Fraction:
    """Orbifold Hurwitz number by exhaustive monodromy enumeration.

    Raises :class:`~orbifold_hurwitz.index.DivisibilityError` when r does
    not divide d, and refuses with :class:`BudgetExceededError` (never
    counting partially) when the estimated search exceeds
    ``ORACLE_BUDGET``.
    """
    d, s = idx.d, idx.s
    # With three or more transpositions, C(d, 2)^s alone passes the budget
    # once s reaches its bit length; such s are refused before that power
    # is built.
    too_deep = d > 2 and s >= ORACLE_BUDGET.bit_length()
    if too_deep or estimated_steps(idx.r, d, s) > ORACLE_BUDGET:
        raise BudgetExceededError(
            f"r={idx.r} g={idx.g} d={d} s={s}: the oracle's estimated steps "
            f"exceed the budget of {ORACLE_BUDGET}"
        )
    raw = raw_tuple_count(idx.r, idx.mu, s)
    return Fraction(raw, factorial(d) * factorial(s))
