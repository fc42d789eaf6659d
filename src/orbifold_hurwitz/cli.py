"""Command-line interface.

Four subcommands:

* ``compute``: one exact value (arrowed or orbifold count).
* ``table``:   CSV or JSON table over a genus range and degree bound.
* ``series``:  coefficient dumps of the curve and energy series.
* ``verify``:  run the cross-check suites.

All numbers are printed as exact ``num/den`` strings; no output of this
program ever contains a floating-point token.  Exit codes: 0 success,
1 verification failure, 2 usage or input error, including a query over
the recursion, oracle or series budget.  A closed stdout pipe (say,
output piped into ``head``) ends the run quietly with 141 = 128 + SIGPIPE.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from math import comb

from .core import MemoTable, arrowed_hurwitz, orbifold_hurwitz, partitions
from .index import BudgetExceededError, HurwitzIndex
from .report import VerificationReport
from .series import (
    f01_closed_in_z,
    f02_closed_in_z,
    spectral_curve_y_of_x,
)
from .verify import (
    verify_against_oracle,
    verify_cayley,
    verify_f01,
    verify_f02,
    verify_f02_pde,
    verify_jpt,
    verify_r_scaling,
    verify_spectral_ode,
)

SUITES = ("jpt", "cayley", "oracle", "f01", "f02", "ode", "pde", "scaling", "all")
SERIES_KINDS = ("curve", "f01", "f02", "w01")
TABLE_HEADER = ["r", "g", "mu", "n", "d", "s", "arrowed", "hurwitz"]
# Largest series_cost a ``series`` dump, or an ode, pde or f02 verify suite,
# may have.  The largest admitted dumps, curve r=1 order 143 and f02 r=1
# order 74, took 2.4 s and 0.9 s on a 2-vCPU Xeon with CPython 3.11.
SERIES_BUDGET = 1_500_000


def dump_json(payload) -> str:
    """The one JSON formatting used everywhere; reprints byte-identically."""
    return json.dumps(payload, indent=2)


def _parse_mu(text: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parser.error(f"malformed profile {text!r}: expected comma-separated integers")
    if not parts or any(p < 1 for p in parts):
        parser.error(f"profile parts must be positive integers, got {text!r}")
    return parts


def _parse_r_list(text: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        parser.error(f"malformed r list {text!r}")
    if not values or any(v < 1 for v in values):
        parser.error(f"r values must be positive integers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _cmd_compute(args, parser) -> int:
    if args.r < 1:
        parser.error("--r must be a positive integer")
    if args.genus < 0:
        parser.error("--genus must be non-negative")
    mu = _parse_mu(args.mu, parser)
    idx = HurwitzIndex(args.r, args.genus, mu)
    memo = MemoTable()
    try:
        arrowed = arrowed_hurwitz(idx, memo)
    except BudgetExceededError as exc:
        parser.error(str(exc))
    hurwitz = orbifold_hurwitz(idx, memo)
    if args.json:
        payload = {
            "r": idx.r,
            "g": idx.g,
            "mu": list(idx.mu),
            "n": idx.n,
            "d": idx.d,
            "m": idx.m if idx.divisible else None,
            "s": idx.s if idx.divisible else None,
            "arrowed": str(arrowed),
            "hurwitz": str(hurwitz),
        }
        print(dump_json(payload))
    else:
        print(arrowed if args.arrowed else hurwitz)
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_rows(r: int, g_min: int, g_max: int, degree_max: int):
    memo = MemoTable()
    for g in range(g_min, g_max + 1):
        for d in range(r, degree_max + 1, r):
            for mu in partitions(d):
                idx = HurwitzIndex(r, g, mu)
                yield {
                    "r": r,
                    "g": g,
                    "mu": list(mu),
                    "n": idx.n,
                    "d": d,
                    "s": idx.s,
                    "arrowed": str(arrowed_hurwitz(idx, memo)),
                    "hurwitz": str(orbifold_hurwitz(idx, memo)),
                }


def _cmd_table(args, parser) -> int:
    if args.r < 1:
        parser.error("--r must be a positive integer")
    if args.genus < 0:
        parser.error("--genus must be non-negative")
    g_max = args.genus if args.genus_max is None else args.genus_max
    if g_max < args.genus:
        parser.error("--genus-max must be at least --genus")
    if args.degree_max < 1:
        parser.error("--degree-max must be positive")
    try:
        rows = list(_table_rows(args.r, args.genus, g_max, args.degree_max))
    except BudgetExceededError as exc:
        parser.error(str(exc))

    def render(stream) -> None:
        if args.format == "csv":
            writer = csv.writer(stream)
            writer.writerow(TABLE_HEADER)
            for row in rows:
                writer.writerow(
                    [
                        row["r"],
                        row["g"],
                        ",".join(str(p) for p in row["mu"]),
                        row["n"],
                        row["d"],
                        row["s"],
                        row["arrowed"],
                        row["hurwitz"],
                    ]
                )
        else:
            stream.write(dump_json(rows) + "\n")

    if args.output is None:
        render(sys.stdout)
    else:
        try:
            with open(args.output, "w", newline="") as stream:
                render(stream)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _series_terms(which: str, r: int, order: int):
    """(exponents, coefficient) pairs; zero coefficients are omitted."""
    if which in ("curve", "w01"):
        # w01 = y(x) dx/x has the curve's coefficients; it is an alias.
        y = spectral_curve_y_of_x(r, order)
        return "x", [((d,), c) for d, c in enumerate(y.coefficients) if c]
    if which == "f01":
        f = f01_closed_in_z(r, max(order, r))
        return "z", [((d,), c) for d, c in enumerate(f.coefficients) if c and d <= order]
    f = f02_closed_in_z(r, max(order, 2, r))
    return "z1,z2", [(ij, c) for ij, c in f.terms() if sum(ij) <= order]


def series_cost(which: str, r: int, order: int) -> int:
    """Upper bound on the coefficient products behind one ``series`` dump,
    plus the coefficients it builds.

    ``curve``/``w01``: Lagrange inversion in w = x^r takes k = order // r
    products of two k-coefficient series, k * k * (k + 1) / 2 in all, and
    the curve has order + 1 coefficients.  ``f02``: the log of the order-n
    divided-difference kernel, with n = max(order, 2, r), takes at most
    C(k + 3, 3) products at degree k, C(n + 4, 4) in all, more than its
    coefficient count.  ``f01`` is a closed form: max(order, r) + 1
    coefficients.
    """
    if which in ("curve", "w01"):
        k = order // r
        return k * k * (k + 1) // 2 + order + 1
    if which == "f02":
        return comb(max(order, 2, r) + 4, 4)
    return max(order, r) + 1


def _cmd_series(args, parser) -> int:
    if args.r < 1:
        parser.error("--r must be a positive integer")
    if args.order < 1:
        parser.error("--order must be positive")
    if args.which in ("curve", "w01") and args.order < args.r:
        parser.error("--order must be at least --r for the curve series")
    cost = series_cost(args.which, args.r, args.order)
    if cost > SERIES_BUDGET:
        parser.error(
            f"--which {args.which} --r {args.r} --order {args.order}: cost bound "
            f"{cost} exceeds the series budget of {SERIES_BUDGET}"
        )
    variables, terms = _series_terms(args.which, args.r, args.order)
    if args.format == "json":
        payload = {
            "which": args.which,
            "r": args.r,
            "order": args.order,
            "variables": variables.split(","),
            "terms": [
                {"exponents": list(exponents), "coefficient": str(c)}
                for exponents, c in terms
            ],
        }
        print(dump_json(payload))
    else:
        for exponents, c in terms:
            print("{0}\t{1}".format(",".join(str(e) for e in exponents), c))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _run_suites(args, parser) -> list[VerificationReport]:
    r_list = _parse_r_list(args.r, parser)
    order = args.order
    ode_order = 20 if order is None else order
    reports: list[VerificationReport] = []
    memo = MemoTable()
    wanted = SUITES[:-1] if args.suite == "all" else (args.suite,)
    # The series suites are admitted before any suite runs: ode builds the
    # curve to its order, pde and f02 the two-point energy to theirs.
    for suite in wanted:
        if suite not in ("ode", "pde", "f02"):
            continue
        for r in r_list:
            if suite == "ode":
                cost = series_cost("curve", r, ode_order)
            else:
                cost = series_cost("f02", r, args.total_order)
            if cost > SERIES_BUDGET:
                parser.error(
                    f"suite {suite} --r {r}: cost bound {cost} exceeds the "
                    f"series budget of {SERIES_BUDGET}"
                )
    for suite in wanted:
        try:
            if suite == "jpt":
                for r in r_list:
                    reports.append(verify_jpt(r, max(args.max_degree, r), memo))
            elif suite == "cayley":
                reports.append(verify_cayley(args.max, memo))
            elif suite == "oracle":
                reports.append(verify_against_oracle(r_list, args.d_max, args.s_max, memo))
            elif suite == "f01":
                for r in r_list:
                    reports.append(verify_f01(r, 12 if order is None else order, memo))
            elif suite == "f02":
                for r in r_list:
                    reports.append(verify_f02(r, args.total_order, memo))
            elif suite == "ode":
                for r in r_list:
                    reports.append(verify_spectral_ode(r, ode_order))
            elif suite == "pde":
                for r in r_list:
                    reports.append(verify_f02_pde(r, args.total_order))
            elif suite == "scaling":
                for r in r_list:
                    reports.append(verify_r_scaling(r, args.m_max, memo))
        except (ValueError, BudgetExceededError) as exc:
            parser.error(f"suite {suite}: {exc}")
    return reports


def _cmd_verify(args, parser) -> int:
    reports = _run_suites(args, parser)
    all_pass = all(report.passed for report in reports)
    if args.json:
        print(dump_json([report.to_dict() for report in reports]))
    else:
        for report in reports:
            print(report)
        print("overall: {0}".format("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbifold-hurwitz",
        description="Exact simple and orbifold Hurwitz numbers, their mirror "
        "series, and cross-check suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="one exact count")
    p_compute.add_argument("--r", type=int, required=True, help="orbifold order")
    p_compute.add_argument("--genus", type=int, required=True)
    p_compute.add_argument("--mu", type=str, required=True, help="profile, e.g. 3,1")
    p_compute.add_argument(
        "--arrowed",
        action="store_true",
        help="print the arrowed count instead of the orbifold Hurwitz number",
    )
    p_compute.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="table of counts over a range")
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--genus", type=int, default=0, help="smallest genus")
    p_table.add_argument("--genus-max", type=int, default=None)
    p_table.add_argument("--degree-max", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--output", type=str, default=None, help="default: stdout")

    p_series = sub.add_parser("series", help="series coefficient dump")
    p_series.add_argument("--which", choices=SERIES_KINDS, required=True)
    p_series.add_argument("--r", type=int, required=True)
    p_series.add_argument("--order", type=int, required=True)
    p_series.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run cross-check suites")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--r", type=str, default="1,2,3", help="comma list of r")
    p_verify.add_argument("--max", type=int, default=12, help="cayley: largest d")
    p_verify.add_argument("--max-degree", type=int, default=12, help="jpt: largest d")
    p_verify.add_argument("--d-max", type=int, default=4, help="oracle: largest degree")
    p_verify.add_argument("--s-max", type=int, default=4, help="oracle: most branch points")
    p_verify.add_argument(
        "--order", type=int, default=None, help="ode/f01 order (defaults 20/12)"
    )
    p_verify.add_argument("--total-order", type=int, default=10, help="f02/pde order")
    p_verify.add_argument("--m-max", type=int, default=6, help="scaling: largest m")
    p_verify.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute":
        return _cmd_compute(args, parser)
    if args.command == "table":
        return _cmd_table(args, parser)
    if args.command == "series":
        return _cmd_series(args, parser)
    return _cmd_verify(args, parser)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
