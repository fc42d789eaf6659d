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
query over the recursion, oracle or series budget, into a refusal by
the subcommand's own parser; ``table`` raises such a ``ValueError``
when it cannot write ``--output``.  Every exit 2, argparse's own included, prints one
stderr line, ``orbifold-hurwitz <command>: error: <message>`` (just
``orbifold-hurwitz: error: ...`` when no subcommand is named).
Each layer refuses its own over-budget queries before any work;
``table`` admits the numbers of its costliest row, and ``verify`` runs
every suite's check from :mod:`~orbifold_hurwitz.verify`, for every r,
before its first value.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import islice
from math import prod

from . import verify
from .core import MemoTable, arrowed_hurwitz, check_budget, fill_table, partitions
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


# The one JSON formatting used everywhere; reprints byte-identically.
_JSON = json.JSONEncoder(indent=2)
# iterencode pieces joined per write: a table's pieces are short strings,
# so the whole document is never held as one string or one list
_PIECES = 1000


def dump_json(payload) -> str:
    """``payload`` as the one JSON text every output prints."""
    return _JSON.encode(payload)


def write_json(payload, stream) -> None:
    """Write ``dump_json(payload)`` and a newline to ``stream``, in pieces."""
    pieces = _JSON.iterencode(payload)
    while chunk := "".join(islice(pieces, _PIECES)):
        stream.write(chunk)
    stream.write("\n")


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


def _counts(idx: HurwitzIndex, memo: MemoTable):
    """The arrowed count of ``idx`` and its orbifold Hurwitz number, the
    arrowed count divided by mu_1 * ... * mu_n."""
    arrowed = arrowed_hurwitz(idx, memo)
    return arrowed, arrowed / prod(idx.mu)


def _cmd_compute(args) -> int:
    idx = HurwitzIndex(args.r, args.genus, args.mu)
    arrowed, hurwitz = _counts(idx, MemoTable())
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
        write_json(payload, sys.stdout)
    else:
        print(arrowed if args.arrowed else hurwitz)
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_rows(memo: MemoTable, r: int, g_min: int, g_max: int, degree_max: int):
    """The table's rows, genus by genus and degree by degree, each one
    memo hit in a ``memo`` that ``fill_table`` has filled."""
    for g in range(g_min, g_max + 1):
        for d in range(r, degree_max + 1, r):
            for mu in partitions(d):
                idx = HurwitzIndex(r, g, mu)
                arrowed, hurwitz = _counts(idx, memo)
                yield {
                    "r": r,
                    "g": g,
                    "mu": list(mu),
                    "n": idx.n,
                    "d": d,
                    "s": idx.s,
                    "arrowed": str(arrowed),
                    "hurwitz": str(hurwitz),
                }


def _cmd_table(args) -> int:
    g_max = args.genus if args.genus_max is None else args.genus_max
    if g_max < args.genus:
        raise ValueError("--genus-max must be at least --genus")
    # The row (1, ..., 1) at the top genus and degree has the largest cost
    # bound: the most parts of the largest degree.  No degree, no rows.
    top = args.degree_max - args.degree_max % args.r
    if top:
        check_budget(args.r, g_max, top, top)

    def render(stream) -> None:
        rows = ()
        if top:
            memo = MemoTable()
            fill_table(args.r, args.genus, g_max, args.degree_max, memo)
            rows = _table_rows(memo, args.r, args.genus, g_max, args.degree_max)
        if args.format == "csv":
            writer = csv.writer(stream)
            writer.writerow(TABLE_HEADER)
            for row in rows:
                cells = dict(row, mu=",".join(str(p) for p in row["mu"]))
                writer.writerow([cells[column] for column in TABLE_HEADER])
        else:
            write_json(list(rows), stream)

    # A refused row range never opens --output, and an unwritable --output
    # is refused before any row is computed.
    if args.output is None:
        render(sys.stdout)
    else:
        try:
            with open(args.output, "w", newline="") as stream:
                render(stream)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _series_terms(which: str, r: int, order: int):
    """The variables of the series ``which`` at ``order`` and its
    (exponents, coefficient) pairs; zero coefficients are omitted."""
    if which == "f02":
        return "z1,z2", list(f02_closed_in_z(r, order).terms())
    if which == "f01":
        var, f = "z", f01_closed_in_z(r, order)
    else:
        # w01 = y(x) dx/x has the curve's coefficients; it is an alias.
        var, f = "x", spectral_curve_y_of_x(r, order)
    return var, [((d,), c) for d, c in enumerate(f.coefficients) if c]


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
        write_json(payload, sys.stdout)
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
        write_json([report.to_dict() for report in reports], sys.stdout)
    else:
        for report in reports:
            print(report)
        print("overall: {0}".format("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Refuses with argparse's error line, ``<prog>: error: <message>``,
    and exit 2, but without the usage block argparse prints before it.
    Subparsers are built from the parser's class, so they refuse the same
    way."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbifold-hurwitz",
        description="Exact simple and orbifold Hurwitz numbers, their mirror "
        "series, and cross-check suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive, non_negative = _ints(1), _ints(0)

    p_compute = sub.add_parser("compute", help="one exact count")
    p_compute.set_defaults(run=_cmd_compute, refuse=p_compute.error)
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
    p_table.set_defaults(run=_cmd_table, refuse=p_table.error)
    p_table.add_argument("--r", type=positive, required=True)
    p_table.add_argument("--genus", type=non_negative, default=0, help="smallest genus")
    p_table.add_argument("--genus-max", type=non_negative, default=None)
    p_table.add_argument("--degree-max", type=positive, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--output", type=str, default=None, help="default: stdout")

    p_series = sub.add_parser("series", help="series coefficient dump")
    p_series.set_defaults(run=_cmd_series, refuse=p_series.error)
    p_series.add_argument("--which", choices=SERIES_KINDS, required=True)
    p_series.add_argument("--r", type=positive, required=True)
    p_series.add_argument("--order", type=positive, required=True)
    p_series.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run cross-check suites")
    p_verify.set_defaults(run=_cmd_verify, refuse=p_verify.error)
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
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, BudgetExceededError) as exc:
        # refused by the subcommand's own parser; an OSError is not caught
        # here, so a closed stdout still ends in exit 141
        args.refuse(str(exc))


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
