"""Monodromy enumeration: anchors, invariants, budgets, independence."""

import ast
import inspect
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb
from typing import Iterator

import pytest

import orbifold_hurwitz.core as core_module
import orbifold_hurwitz.index as index_module
import orbifold_hurwitz.oracle as oracle_module
import orbifold_hurwitz.verify as verify_module
from orbifold_hurwitz import (
    BudgetExceededError,
    HurwitzIndex,
    MemoTable,
    count_monodromy_tuples,
    orbifold_hurwitz,
    partitions,
    raw_tuple_count,
    verify_against_oracle,
)
from orbifold_hurwitz.index import edge_count
from orbifold_hurwitz.oracle import (
    ORACLE_BUDGET,
    _cycle_labels,
    _pinned_sigma0,
    count_of_cycle_type,
    cycle_type,
    estimated_steps,
    label_assignment_count,
    steps_within,
    transpositions,
)
from orbifold_hurwitz.verify import oracle_cases

F = Fraction
Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# the brute-force reference: every transposition sequence, one by one
# ---------------------------------------------------------------------------


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[v] for v in p)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


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
    pinned = _pinned_sigma0(r, mu, s) if sigma0 is None else sigma0
    if cycle_type(pinned) != (r,) * (len(pinned) // r):
        raise ValueError("sigma0 has the wrong cycle type")
    target = tuple(sorted(mu, reverse=True))
    for taus, sigma_inf in _factorizations(pinned, target, s, require_transitive):
        # the cycle lengths, in the order of each cycle's smallest point
        lengths = tuple(Counter(_cycle_labels(sigma_inf)).values())
        for labels in _enumerate_label_assignments(mu, lengths):
            yield PermutationTuple(pinned, taus, sigma_inf, labels)


# ---------------------------------------------------------------------------
# permutation plumbing
# ---------------------------------------------------------------------------


def test_cycle_type():
    assert cycle_type((1, 2, 0, 3)) == (3, 1)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 3, 2)) == (2, 2)


def test_transposition_count():
    assert len(transpositions(4)) == 6
    assert len(transpositions(1)) == 0


def test_label_assignment_count():
    assert label_assignment_count((3, 1)) == 1
    assert label_assignment_count((1, 1)) == 2
    assert label_assignment_count((2, 2, 1)) == 2
    assert label_assignment_count((2, 2, 2)) == 6


# ---------------------------------------------------------------------------
# normalization anchors (must all hold before the oracle is trusted)
# ---------------------------------------------------------------------------


def test_anchor_one_part_base_case():
    # the two 3-cycles, no transpositions: 2 / (3! 0!) = 1/3
    assert raw_tuple_count(3, (3,), 0) == 2
    assert count_monodromy_tuples(HurwitzIndex(3, 0, (3,))) == F(1, 3)
    for r in (1, 2, 4):
        assert count_monodromy_tuples(HurwitzIndex(r, 0, (r,))) == F(1, r)


def test_anchor_two_part_simple_cover():
    # 24 transposition triples in S_3 with transposition product, transitive
    assert raw_tuple_count(1, (2, 1), 3) == 24
    assert count_monodromy_tuples(HurwitzIndex(1, 0, (2, 1))) == F(2, 3)


def test_anchor_two_part_orbifold_cover():
    assert count_monodromy_tuples(HurwitzIndex(2, 0, (3, 1))) == F(3, 2)


def test_repeated_parts_need_label_weighting():
    # tau_1 = tau_2 = (12) and two labelings: 2 / (2! 2!) = 1/2
    assert raw_tuple_count(1, (1, 1), 2) == 2
    assert count_monodromy_tuples(HurwitzIndex(1, 0, (1, 1))) == F(1, 2)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_enumerated_tuples_satisfy_defining_relations():
    identity = (0, 1, 2, 3)
    tuples = list(enumerate_monodromy_tuples(2, (3, 1), 2))
    # sigma_0 is pinned to the block representative (0 1)(2 3); the other
    # two sigma_0 of type (2, 2) start as many tuples each
    assert len(tuples) == 24
    assert all(t.sigma0 == (1, 0, 3, 2) for t in tuples)
    assert 24 * count_of_cycle_type(4, (2, 2)) == raw_tuple_count(2, (3, 1), 2) == 72
    for t in tuples:
        assert t.product() == identity
        assert t.is_transitive()
        assert cycle_type(t.sigma0) == (2, 2)
        assert all(cycle_type(tau) == (2, 1, 1) for tau in t.taus)
        # label i sits on a cycle of length mu_i
        lengths = sorted(cycle_type(t.sigma_inf), reverse=True)
        assert sorted(lengths) == sorted((3, 1))


def test_explicit_label_enumeration_matches_formula():
    for mu in [(3, 1), (1, 1), (2, 2, 1), (2, 2, 2), (4,), (1, 1, 1), (2, 1, 1)]:
        shape = tuple(sorted(mu, reverse=True))
        explicit = _enumerate_label_assignments(mu, shape)
        assert len(explicit) == label_assignment_count(mu)
        assert len(set(explicit)) == len(explicit)
        # a mismatched shape admits no assignment at all
        assert _enumerate_label_assignments(mu, shape + (1,)) == []


def test_transitivity_filter_discards_disconnected_tuples():
    # with no transpositions a trivial sigma_0 never acts transitively on 2 sheets
    assert raw_tuple_count(1, (1, 1), 0, require_transitive=True) == 0
    assert raw_tuple_count(1, (1, 1), 0, require_transitive=False) == 2


def test_counts_are_invariant_under_sigma0_conjugation():
    # (d, class shape, profile, s); a profile of None marks a shape that is
    # no sigma_0 type (r, ..., r), whose class size alone is checked
    for d, shape, mu, s in [
        (3, (3,), (3,), 2),
        (4, (2, 2), (3, 1), 2),
        (4, (2, 1, 1), None, None),
        (5, (3, 2), None, None),
        (6, (3, 3), (3, 2, 1), 3),
    ]:
        # the whole conjugacy class, found by filtering all of S_d
        cls = [p for p in permutations(range(d)) if cycle_type(p) == shape]
        assert len(cls) == count_of_cycle_type(d, shape)
        if mu is None:
            continue
        target = tuple(sorted(mu, reverse=True))
        counts = {oracle_module._layered_count(p, target, s, True) for p in cls}
        assert len(counts) == 1
        pinned = counts.pop() * label_assignment_count(mu)
        assert pinned > 0
        assert raw_tuple_count(shape[0], mu, s) == len(cls) * pinned


def test_instance_validation():
    with pytest.raises(ValueError):
        count_monodromy_tuples(HurwitzIndex(2, 0, (3,)))  # r does not divide d
    with pytest.raises(ValueError):
        HurwitzIndex(1, 0, (0,))
    with pytest.raises(BudgetExceededError):
        count_monodromy_tuples(HurwitzIndex(1, 0, (7,)))  # s = 6 in S_7


# ---------------------------------------------------------------------------
# the layered count against the brute-force enumeration
# ---------------------------------------------------------------------------


def _block(r, d):
    """The block representative (0 1 ... r-1)(r ... 2r-1)... of type (r, ..., r)."""
    return tuple(v + 1 if (v + 1) % r else v + 1 - r for v in range(d))


@pytest.mark.parametrize("transitive", [True, False])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_layered_count_matches_brute_force(r, transitive):
    for d in range(r, 6, r):
        pinned = _block(r, d)
        # the layered count pins the same sigma_0 and multiplies by its class
        cls = count_of_cycle_type(d, (r,) * (d // r))
        for mu in partitions(d):
            for s in range(5):
                brute = len(list(enumerate_monodromy_tuples(r, mu, s, transitive, pinned)))
                assert raw_tuple_count(r, mu, s, transitive) == cls * brute, (mu, s)


def test_layered_count_matches_brute_force_from_another_sigma0():
    sigma0 = (4, 5, 0, 1, 2, 3)  # (0 4 2)(1 5 3), not the block representative
    for transitive in (True, False):
        brute = len(list(enumerate_monodromy_tuples(3, (3, 2, 1), 3, transitive, sigma0)))
        layered = oracle_module._layered_count(sigma0, (3, 2, 1), 3, transitive)
        assert layered * label_assignment_count((3, 2, 1)) == brute > 0


def test_layered_count_stops_at_an_empty_layer():
    # one sheet has no transposition, so every layer after the first is empty
    started = time.perf_counter()
    assert raw_tuple_count(1, (1,), 10**7) == 0
    assert time.perf_counter() - started < 1


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------


def _brute_force_admitted(d, s):
    """The budget of the sequence enumeration this count replaced."""
    t = comb(d, 2)
    return not (d > 2 and s >= 27) and d * (t + (s + 1) * t**s) <= 10**8


def test_instances_the_brute_force_budget_admitted_stay_admitted():
    admitted = 0
    for r in (1, 2, 3):
        for d in range(r, 13, r):
            for s in range(31):
                if _brute_force_admitted(d, s):
                    admitted += 1
                    assert steps_within(r, d, s, ORACLE_BUDGET) is not None, (r, d, s)
    assert admitted == 213


def test_budget_refusal_is_loud():
    idx = HurwitzIndex(1, 3, (6,))  # s = 11: astronomically many tuples
    assert estimated_steps(1, 6, idx.s) > ORACLE_BUDGET
    for idx in (
        idx,
        HurwitzIndex(1, 10, (6,)),  # s = 25
        HurwitzIndex(1, 10**9, (3,)),  # s = 2 * 10^9: 3^s is never built
        # counts of thousands of words, which took 9.0 s and 4.6 s to count
        # on a 2-vCPU Xeon
        HurwitzIndex(1, 44_775, (3,)),  # s = 89,552
        HurwitzIndex(1, 3_318, (4,)),  # s = 6,639
        # s = 0 or 1, but the transposition list alone is over budget
        HurwitzIndex(1000, 0, (1000,)),
        HurwitzIndex(500, 0, (1000,)),
    ):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            count_monodromy_tuples(idx)
        assert time.perf_counter() - started < 1


def test_layer_charge_bounds_the_few_sheet_instances():
    # s = 2g + 1 at mu = (2,); the largest admitted s, 148,513, counted and
    # normalized in about 1 s on a 2-vCPU Xeon
    assert HurwitzIndex(1, 74_256, (2,)).s == 148_513
    assert steps_within(1, 2, 148_513, ORACLE_BUDGET) == 29_999_828
    assert steps_within(1, 2, 148_515, ORACLE_BUDGET) is None
    for idx in (
        HurwitzIndex(1, 74_257, (2,)),
        HurwitzIndex(1, 7 * 10**6, (2,)),  # admitted before layers were charged
        HurwitzIndex(1, 10**6, (1,)),  # one sheet: no state, but s! to build
    ):
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=f"s={idx.s}: cost bound"):
            count_monodromy_tuples(idx)
        assert time.perf_counter() - started < 1


def test_layer_charge_counts_the_words_of_big_counts():
    # d = 3: three transpositions, and from step 3 on 15 = (3!/2) Bell(3)
    # states per layer.  3^40 < 2^64 <= 3^41, so the counts made by steps
    # 40 to 79 take a second word and those of step 80 a third.
    def one_word(s):
        return 3 * (3 + 3 * (1 + 3 + 9 + 15 * (s - 3))) + 200 * (s + 1)

    assert estimated_steps(1, 3, 40) == one_word(40)
    assert estimated_steps(1, 3, 41) == one_word(41) + 3 * 15
    assert estimated_steps(1, 3, 81) == one_word(81) + 3 * 15 * (40 + 2)
    # one transposition: every count is 1, however many steps
    assert estimated_steps(1, 2, 10**4) == (2 + 2 * 10**4) + 200 * (10**4 + 1)


def _package_imports(module):
    """Names of the package modules that ``module`` imports."""
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if "orbifold" in a.name}
        elif isinstance(node, ast.ImportFrom):
            if node.level or "orbifold" in (node.module or ""):
                names.add(node.module or "")
    return names


def test_oracle_module_never_imports_the_recursion():
    assert _package_imports(oracle_module) == {"index"}
    assert _package_imports(index_module) == set()
    assert "oracle" not in _package_imports(core_module)


# ---------------------------------------------------------------------------
# agreement with the recursion
# ---------------------------------------------------------------------------


def test_small_sweep_agrees_with_recursion():
    report = verify_against_oracle((1,), 3, 3)
    assert report.passed
    assert len(report.cases) > 0


def test_degree_eight_sweep_agrees_with_recursion():
    # 61 cases, among them the five r = 2, d = 8 ones
    report = verify_against_oracle((1, 2, 3), 8, 4)
    assert report.passed
    assert len(report.cases) == 61


def test_genus_one_cover_of_degree_two():
    # single 2-sheeted torus cover: one tuple over 2! 3!
    assert count_monodromy_tuples(HurwitzIndex(1, 1, (2,))) == F(1, 12)
    assert orbifold_hurwitz(HurwitzIndex(1, 1, (2,)), MemoTable()) == F(1, 12)


# ---------------------------------------------------------------------------
# the oracle suite as a whole run
# ---------------------------------------------------------------------------


def _every_case(r_set, d_max, s_max):
    """The oracle suite's cases by walking every partition of every d."""
    cases = []
    for r in sorted(set(r_set)):
        for d in range(r, d_max + 1, r):
            for mu in partitions(d):
                g = 0
                while edge_count(r, g, mu) <= s_max:
                    cases.append(HurwitzIndex(r, g, mu))
                    g += 1
    return cases


@pytest.mark.parametrize(
    "r_set, d_max, s_max, count, estimate",
    [
        # the two verify-oracle benchmark jobs and ``verify --suite oracle --d-max 7``
        ((1, 2, 3), 5, 5, 45, 521_524),
        ((1, 2, 3), 6, 3, 34, 162_182),
        ((1, 2, 3), 7, 4, 56, 1_401_326),
        ((2, 1), 8, 2, 12, 2_029),
        ((1,), 9, 0, 1, 0),
    ],
)
def test_oracle_cases_are_the_walked_cases_in_order(r_set, d_max, s_max, count, estimate):
    # ``estimate`` pins the layered-state part of the run's estimate; each
    # case adds 200 steps per layer for bookkeeping and normalization
    cases, steps = oracle_cases(r_set, d_max, s_max)
    assert cases == _every_case(r_set, d_max, s_max)
    assert len(cases) == count
    layers = sum(i.s + 1 for i in cases)
    assert steps == sum(estimated_steps(i.r, i.d, i.s) for i in cases)
    assert steps == estimate + 200 * layers <= ORACLE_BUDGET


def test_oracle_run_budget_calibration(monkeypatch):
    # r = 1, d <= 6, s <= 8: 62 cases, each within the per-case budget,
    # whose estimates sum to eight times it; that run took about 1.7 s on a
    # 2-vCPU Xeon.
    monkeypatch.setattr(verify_module, "ORACLE_BUDGET", 10**12)
    listed, _ = oracle_cases((1,), 6, 8)
    assert len(listed) == 62
    assert all(estimated_steps(i.r, i.d, i.s) <= ORACLE_BUDGET for i in listed)
    assert sum(estimated_steps(i.r, i.d, i.s) for i in listed) == 240_608_335 > ORACLE_BUDGET


@pytest.mark.parametrize("d_max, s_max", [(6, 8), (8, 10**9), (1, 10**9)])
def test_oracle_run_over_budget_refused_before_counting(monkeypatch, d_max, s_max):
    def never(idx):
        raise AssertionError("counted before the run was admitted")

    monkeypatch.setattr(verify_module, "count_monodromy_tuples", never)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        verify_against_oracle((1,), d_max, s_max)
    assert time.perf_counter() - started < 1
