"""Command-line interface.

Four subcommands:

* ``compute``: one exact value (arrowed or orbifold count).
* ``table``:   CSV or JSON table over a genus range and degree bound.
* ``series``:  coefficient dumps of the curve and energy series.
* ``verify``:  run the cross-check suites.

All numbers are printed as exact ``num/den`` strings; no output of this
program ever contains a floating-point token.  Exit codes: 0 success,
1 verification failure, 2 usage or input error, 70 (EX_SOFTWARE) an
unexpected exception, reported on one stderr line, and 141 = 128 +
SIGPIPE when the reader of stdout goes away (say, output piped into
``head``); the run then ends quietly.  Integer flags check their range
where they are declared, and :func:`main` turns every refusal the
library raises, a ``ValueError`` or a ``BudgetExceededError`` from a
query over the recursion, oracle or series budget, into exit 2 with one
``error:`` line.  Each layer refuses its own over-budget queries before
any work; ``table`` admits the numbers of its costliest row, and
``verify`` runs every suite's check from :mod:`~orbifold_hurwitz.verify`,
for every r, before its first value.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import verify
from .core import MemoTable, arrowed_hurwitz, check_budget, orbifold_hurwitz, partitions
from .index import BudgetExceededError, HurwitzIndex
from .report import VerificationReport
from .series import f01_closed_in_z, f02_closed_in_z, spectral_curve_y_of_x
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

SERIES_KINDS = ("curve", "f01", "f02", "w01")
TABLE_HEADER = ["r", "g", "mu", "n", "d", "s", "arrowed", "hurwitz"]


def dump_json(payload) -> str:
    """The one JSON formatting used everywhere; reprints byte-identically."""
    return json.dumps(payload, indent=2)


def _ints(low: int, many: bool = False):
    """An argparse ``type=``: one integer, or with ``many`` a tuple of
    comma-separated integers, each at least ``low``."""

    def parse(text: str):
        try:
            values = tuple(int(p) for p in (text.split(",") if many else (text,)))
        except ValueError:
            kind = "comma-separated integers" if many else "an integer"
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        if any(v < low for v in values):
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return values if many else values[0]

    return parse


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    idx = HurwitzIndex(args.r, args.genus, args.mu)
    memo = MemoTable()
    arrowed = arrowed_hurwitz(idx, memo)
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


def _cmd_table(args) -> int:
    g_max = args.genus if args.genus_max is None else args.genus_max
    if g_max < args.genus:
        raise ValueError("--genus-max must be at least --genus")
    # The row (1, ..., 1) at the top genus and degree has the largest cost
    # bound: the most parts of the largest degree.
    top = args.degree_max - args.degree_max % args.r
    if top:
        check_budget(args.r, g_max, top, top)
    rows = list(_table_rows(args.r, args.genus, g_max, args.degree_max))

    def render(stream) -> None:
        if args.format == "csv":
            writer = csv.writer(stream)
            writer.writerow(TABLE_HEADER)
            for row in rows:
                cells = dict(row, mu=",".join(str(p) for p in row["mu"]))
                writer.writerow([cells[column] for column in TABLE_HEADER])
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


def _cmd_series(args) -> int:
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


# The verify suites, in the order ``all`` runs them: arguments(args), the
# argument tuple of each run (one per r but for cayley and oracle), and
# runner(arguments, memo), which looks its verify_* name up in this module
# when called.  Checks are reached as ``verify.SUITE_CHECKS``, since
# perfbench/spans.py takes every function imported by name from verify for
# a suite that returns a report.
VERIFY_SUITES = {
    "jpt": (lambda a: [(r, max(a.max_degree, r)) for r in a.r], lambda x, m: verify_jpt(*x, m)),
    "cayley": (lambda a: [(a.max,)], lambda x, m: verify_cayley(*x, m)),
    "oracle": (lambda a: [(a.r, a.d_max, a.s_max)], lambda x, m: verify_against_oracle(*x, m)),
    "f01": (lambda a: [(r, a.order or 12) for r in a.r], lambda x, m: verify_f01(*x, m)),
    "f02": (lambda a: [(r, a.total_order) for r in a.r], lambda x, m: verify_f02(*x, m)),
    "ode": (lambda a: [(r, a.order or 20) for r in a.r], lambda x, m: verify_spectral_ode(*x)),
    "pde": (lambda a: [(r, a.total_order) for r in a.r], lambda x, m: verify_f02_pde(*x)),
    "scaling": (lambda a: [(r, a.m_max) for r in a.r], lambda x, m: verify_r_scaling(*x, m)),
}


def _run_suites(args) -> list[VerificationReport]:
    wanted = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    runs = [(suite, x) for suite in wanted for x in VERIFY_SUITES[suite][0](args)]
    # Every suite is admitted, for every r, before any suite runs.
    for suite, x in runs:
        verify.SUITE_CHECKS[suite](*x)
    memo = MemoTable()
    return [VERIFY_SUITES[suite][1](x, memo) for suite, x in runs]


def _cmd_verify(args) -> int:
    reports = _run_suites(args)
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
    positive, non_negative = _ints(1), _ints(0)

    p_compute = sub.add_parser("compute", help="one exact count")
    p_compute.set_defaults(run=_cmd_compute)
    p_compute.add_argument("--r", type=positive, required=True, help="orbifold order")
    p_compute.add_argument("--genus", type=non_negative, required=True)
    p_compute.add_argument(
        "--mu", type=_ints(1, many=True), required=True, help="profile, e.g. 3,1"
    )
    p_compute.add_argument(
        "--arrowed",
        action="store_true",
        help="print the arrowed count instead of the orbifold Hurwitz number",
    )
    p_compute.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="table of counts over a range")
    p_table.set_defaults(run=_cmd_table)
    p_table.add_argument("--r", type=positive, required=True)
    p_table.add_argument("--genus", type=non_negative, default=0, help="smallest genus")
    p_table.add_argument("--genus-max", type=non_negative, default=None)
    p_table.add_argument("--degree-max", type=positive, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--output", type=str, default=None, help="default: stdout")

    p_series = sub.add_parser("series", help="series coefficient dump")
    p_series.set_defaults(run=_cmd_series)
    p_series.add_argument("--which", choices=SERIES_KINDS, required=True)
    p_series.add_argument("--r", type=positive, required=True)
    p_series.add_argument("--order", type=positive, required=True)
    p_series.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run cross-check suites")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--suite", choices=(*VERIFY_SUITES, "all"), required=True)
    p_verify.add_argument(
        "--r", type=_ints(1, many=True), default="1,2,3", help="comma list of r"
    )
    p_verify.add_argument("--max", type=positive, default=12, help="cayley: largest d")
    p_verify.add_argument("--max-degree", type=positive, default=12, help="jpt: largest d")
    p_verify.add_argument("--d-max", type=positive, default=4, help="oracle: largest degree")
    p_verify.add_argument(
        "--s-max", type=non_negative, default=4, help="oracle: most branch points"
    )
    p_verify.add_argument(
        "--order", type=positive, default=None, help="ode/f01 order (defaults 20/12)"
    )
    p_verify.add_argument("--total-order", type=positive, default=10, help="f02/pde order")
    p_verify.add_argument("--m-max", type=positive, default=6, help="scaling: largest m")
    p_verify.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, BudgetExceededError) as exc:
        parser.error(str(exc))


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
    except Exception as exc:
        # Exit 1 means a verification failed; a bug must not look like one.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(70)  # EX_SOFTWARE in sysexits.h
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
