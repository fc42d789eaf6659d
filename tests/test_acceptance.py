"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Every comparison is exact; the only tolerances are wall-clock budgets.
"""

import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from orbifold_hurwitz import (
    HurwitzIndex,
    MemoTable,
    Series1,
    arrowed_hurwitz,
    count_monodromy_tuples,
    lagrange_invert,
    orbifold_hurwitz,
    partitions,
    tree_number,
    verify_against_oracle,
    verify_f01,
    verify_f02,
    verify_f02_pde,
    verify_jpt,
    verify_spectral_ode,
)

F = Fraction


def _conclude(number: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_two_part_anchor():
    start = time.perf_counter()
    memo = MemoTable()
    arrowed = arrowed_hurwitz(HurwitzIndex(2, 0, (3, 1)), memo)
    orbifold = orbifold_hurwitz(HurwitzIndex(2, 0, (3, 1)), memo)
    elapsed = time.perf_counter() - start
    ok = arrowed == F(9, 2) and orbifold == F(3, 2) and elapsed < 1.0
    _conclude(1, ok, elapsed, f"arrowed={arrowed} orbifold={orbifold}")


def test_criterion_02_one_part_base_cases():
    start = time.perf_counter()
    values = [orbifold_hurwitz(HurwitzIndex(r, 0, (r,))) for r in range(1, 6)]
    elapsed = time.perf_counter() - start
    ok = values == [F(1, r) for r in range(1, 6)]
    _conclude(2, ok, elapsed, f"values={[str(v) for v in values]}")


def test_criterion_03_tree_sequence_and_power_formula():
    start = time.perf_counter()
    head = [tree_number(d) for d in range(1, 7)]
    ok = head == [1, 1, 3, 16, 125, 1296]
    for d in range(1, 13):
        expected = d ** (d - 2) if d >= 2 else 1
        ok = ok and tree_number(d) == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _conclude(3, ok, elapsed, f"head={head}")


def test_criterion_04_closed_forms_match_recursion():
    start = time.perf_counter()
    memo = MemoTable()
    reports = [verify_jpt(r, 12, memo) for r in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 5.0
    total = sum(len(r.cases) for r in reports)
    _conclude(4, ok, elapsed, f"{total} cases across r=1,2,3")


def test_criterion_05_monodromy_oracle_equivalence():
    start = time.perf_counter()
    memo = MemoTable()
    sweep_a = verify_against_oracle((1, 2), 4, 5, memo)
    sweep_b = verify_against_oracle((1,), 5, 4, memo)
    # the three normalization anchors, stated explicitly
    anchors = (
        count_monodromy_tuples(HurwitzIndex(3, 0, (3,))) == F(1, 3)
        and count_monodromy_tuples(HurwitzIndex(2, 0, (3, 1))) == F(3, 2)
        and count_monodromy_tuples(HurwitzIndex(1, 0, (2, 1))) == F(2, 3)
    )
    elapsed = time.perf_counter() - start
    ok = sweep_a.passed and sweep_b.passed and anchors and elapsed < 60.0
    cases = len(sweep_a.cases) + len(sweep_b.cases)
    _conclude(5, ok, elapsed, f"{cases} sweep cases + 3 anchors")


def test_criterion_06_mirror_identities():
    start = time.perf_counter()
    memo = MemoTable()
    ok = True
    for r in (1, 2, 3):
        ok = ok and verify_f01(r, 12, memo).passed
        ok = ok and verify_f02(r, 10, memo).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _conclude(6, ok, elapsed, "f01 to order 12, f02 to total order 10, r=1,2,3")


def test_criterion_07_residuals_vanish():
    start = time.perf_counter()
    ok = True
    for r in (1, 2, 3):
        ok = ok and verify_spectral_ode(r, 20).passed
        ok = ok and verify_f02_pde(r, 10).passed
    elapsed = time.perf_counter() - start
    _conclude(7, ok, elapsed, "ODE to order 20, PDE to total order 10, r=1,2,3")


def test_criterion_08_lagrange_inversion():
    start = time.perf_counter()
    order = 20
    exp_series = Series1(
        [F(1, factorial(k)) for k in range(order)], order - 1, "y"
    )
    inverse = lagrange_invert(exp_series, order)
    ok = all(
        inverse.coefficient(k) == F(k ** (k - 1), factorial(k))
        for k in range(1, order + 1)
    )
    rng = random.Random(20260810)
    round_trips = 0
    for _ in range(50):
        coeffs = [
            F(rng.randint(-4, 4), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        ]
        if coeffs[0] == 0:
            coeffs[0] = F(1, 2)
        f = Series1(coeffs, order=8, var="y")
        y = lagrange_invert(f, 8)
        phi = Series1.identity(8, "y") * f.inverse()
        if y.compose(phi) == Series1.identity(8, "y"):
            round_trips += 1
    ok = ok and round_trips == 50
    elapsed = time.perf_counter() - start
    _conclude(8, ok, elapsed, f"powers to k=20; {round_trips}/50 round trips")


def test_criterion_09_memoized_sweep_performance():
    memo = MemoTable()
    start = time.perf_counter()
    evaluated = 0
    for g in range(0, 3):
        n_max = 6 - 2 * g
        for d in range(1, 17):
            for mu in partitions(d, max_parts=n_max):
                arrowed_hurwitz(HurwitzIndex(1, g, mu), memo)
                evaluated += 1
    sweep_elapsed = time.perf_counter() - start
    lookup_start = time.perf_counter()
    cached = arrowed_hurwitz(HurwitzIndex(1, 2, (10,)), memo)
    lookup_elapsed = time.perf_counter() - lookup_start
    fresh = arrowed_hurwitz(HurwitzIndex(1, 2, (10,)), MemoTable())
    ok = sweep_elapsed < 10.0 and lookup_elapsed < 0.05 and cached == fresh
    _conclude(
        9,
        ok,
        sweep_elapsed,
        f"{evaluated} values, cached lookup {lookup_elapsed * 1000:.2f}ms, "
        f"value {cached}",
    )


def test_criterion_10_cli_contract():
    start = time.perf_counter()
    float_token = re.compile(r"\d\.\d")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "orbifold_hurwitz", *args],
            capture_output=True,
            text=True,
        )

    ok = True
    outputs = []

    proc = run("compute", "--r", "2", "--genus", "0", "--mu", "3,1", "--arrowed")
    ok = ok and proc.returncode == 0 and proc.stdout.strip() == "9/2"
    outputs.append(proc.stdout)

    proc = run("compute", "--r", "3", "--genus", "0", "--mu", "3", "--json")
    ok = ok and proc.returncode == 0
    payload = json.loads(proc.stdout)
    ok = ok and payload["hurwitz"] == "1/3"
    ok = ok and json.dumps(payload, indent=2) + "\n" == proc.stdout
    outputs.append(proc.stdout)

    proc = run("compute", "--r", "0", "--genus", "0", "--mu", "1")
    ok = ok and proc.returncode == 2

    proc = run("table", "--r", "1", "--genus", "0", "--degree-max", "4")
    ok = ok and proc.returncode == 0
    ok = ok and proc.stdout.splitlines()[0] == "r,g,mu,n,d,s,arrowed,hurwitz"
    outputs.append(proc.stdout)

    proc = run("series", "--which", "curve", "--r", "2", "--order", "8")
    ok = ok and proc.returncode == 0
    outputs.append(proc.stdout)

    proc = run("series", "--which", "f02", "--r", "1", "--order", "4", "--format", "json")
    ok = ok and proc.returncode == 0
    outputs.append(proc.stdout)

    proc = run("verify", "--suite", "cayley", "--max", "10", "--json")
    ok = ok and proc.returncode == 0
    reports = json.loads(proc.stdout)
    ok = ok and all(r["summary"]["pass"] for r in reports)
    ok = ok and json.dumps(reports, indent=2) + "\n" == proc.stdout
    outputs.append(proc.stdout)

    proc = run("verify", "--suite", "scaling", "--r", "2", "--m-max", "5")
    ok = ok and proc.returncode == 0
    outputs.append(proc.stdout)

    ok = ok and all(float_token.search(text) is None for text in outputs)
    elapsed = time.perf_counter() - start
    _conclude(10, ok, elapsed, "exit codes, serialization, no float tokens")
