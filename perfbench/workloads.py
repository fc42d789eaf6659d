"""The benchmark's four workloads: the CLI jobs each one runs, and the
check every job's output must pass.

Why these four (each stresses a different layer; see BENCHMARK.json):

* ``table-sweep``: two cold-memo table sweeps.  The recursion in ``core``
  and its ``Fraction`` arithmetic do nearly all the work, about one new
  memo state per call; ``series`` and ``oracle`` are idle.
* ``compute-point``: about forty single ``compute`` queries, each in a
  fresh process.  The same ``core`` layer, but one query fills only the
  descendants of its profile (hundreds of states per call), and
  interpreter start-up is a real share of each job.  An evaluator that
  eagerly fills whole layers would help ``table-sweep`` and cost here.
* ``verify-series``: the ``ode``, ``pde`` and ``f02`` suites, where the
  ``Series1``/``Series2`` engine does the work.
* ``verify-oracle``: the monodromy-oracle suite, where the symmetric-group
  enumeration does the work.

The expected outputs are committed: the two table-sweep outputs as
gzip files under ``reference/`` (with their sha256 here), and the case
count of every verify suite.  ``compute-point`` answers are checked
against the table-sweep rows.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("table-sweep", "compute-point", "verify-series", "verify-oracle")


class CheckError(Exception):
    """A job's output differs from the committed expectation."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check of its stdout.

    ``check`` returns the number of exact values the job delivered, or
    raises :class:`CheckError`.  ``core_states``, when set, is the exact
    number of memo states the traced run must observe for this job.
    """

    argv: tuple[str, ...]
    check: Callable[[bytes], int]
    core_states: int | None = None


# (argv, reference file holding the expected stdout, sha256 of that stdout,
#  memo states the job creates).  2741 is the r=1, g <= 2, d <= 16 sweep's
#  state count in the ROADMAP baseline.
TABLE_JOBS = (
    (
        ("table", "--r", "1", "--genus", "0", "--genus-max", "2", "--degree-max", "16"),
        "table_r1.csv.gz",
        "7897d1767efe19a9e42ebbbf20126b8867fe2855c1fc42bcfccb1d7a69ac0226",
        2741,
    ),
    (
        ("table", "--r", "2", "--genus", "0", "--genus-max", "2", "--degree-max", "20",
         "--format", "json"),
        "table_r2.json.gz",
        "26f975660698d28102e55e2a25870429b13e88f98c55165c1b5c356d06382d28",
        None,
    ),
)

# compute-point draws one profile per cell (r, g, d, n): a uniformly chosen
# partition of d into exactly n parts with exactly DISTINCT_PARTS distinct
# part sizes.  Query cost grows with d, n and the number of distinct parts,
# so fixing all three keeps the batch cost nearly independent of the seed.
# The cells lean toward deep profiles (g = 2, d at the top of the
# table-sweep domain).
COMPUTE_CELLS = (
    (1, 2, 16, 3), (1, 2, 16, 4), (1, 2, 16, 5), (1, 2, 16, 6), (1, 2, 16, 7),
    (1, 2, 16, 8), (1, 2, 14, 4), (1, 2, 14, 6), (1, 2, 14, 8), (1, 1, 16, 4),
    (1, 1, 16, 6), (1, 1, 16, 8), (1, 1, 16, 10), (1, 2, 12, 5), (1, 2, 12, 7),
    (1, 0, 16, 6), (1, 0, 16, 9), (1, 1, 12, 4), (1, 1, 12, 6), (1, 0, 12, 5),
    (2, 2, 20, 3), (2, 2, 20, 4), (2, 2, 20, 5), (2, 2, 20, 6), (2, 2, 18, 4),
    (2, 2, 18, 6), (2, 2, 18, 8), (2, 1, 20, 6), (2, 1, 20, 8), (2, 1, 20, 10),
    (2, 2, 16, 4), (2, 2, 16, 6), (2, 0, 20, 8), (2, 0, 20, 11), (2, 1, 16, 5),
    (2, 1, 16, 7), (2, 0, 16, 6), (2, 2, 14, 5), (2, 2, 14, 7), (2, 1, 18, 7),
)
DISTINCT_PARTS = 3

R123 = (1, 2, 3)

# (argv, {suite name as printed: expected case count})
VERIFY_JOBS = {
    "verify-series": (
        (
            ("verify", "--suite", "ode", "--r", "1,2,3", "--order", "80"),
            {f"ode r={r} order=80": 162 for r in R123},
        ),
        (
            ("verify", "--suite", "pde", "--r", "1,2,3", "--total-order", "22"),
            {f"pde r={r} total_order=22": 276 for r in R123},
        ),
        (
            ("verify", "--suite", "f02", "--r", "1,2,3", "--total-order", "22"),
            {f"f02 r={r} total_order=22": 279 for r in R123},
        ),
    ),
    "verify-oracle": (
        (
            ("verify", "--suite", "oracle", "--r", "1,2,3", "--d-max", "5", "--s-max", "5"),
            {"oracle r={1,2,3} d_max=5 s_max=5": 45},
        ),
        (
            ("verify", "--suite", "oracle", "--r", "1,2,3", "--d-max", "6", "--s-max", "3"),
            {"oracle r={1,2,3} d_max=6 s_max=3": 34},
        ),
    ),
}

_SUITE_LINE = re.compile(r"^suite (.+): (\d+) cases, (\d+) failed -> (PASS|FAIL)$")


def table_rows(stdout: bytes) -> list[tuple[int, int, tuple[int, ...], str]]:
    """(r, g, mu, hurwitz) for every row of a ``table`` output, CSV or JSON."""
    text = stdout.decode()
    if text.startswith("["):
        records = json.loads(text)
    else:
        records = list(csv.DictReader(io.StringIO(text, newline="")))
        for rec in records:
            rec["mu"] = rec["mu"].split(",")
    return [
        (int(rec["r"]), int(rec["g"]), tuple(int(p) for p in rec["mu"]), rec["hurwitz"])
        for rec in records
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_table(expected_sha: str, stdout: bytes) -> int:
    from orbifold_hurwitz.core import jpt_h01, jpt_h02

    digest = _sha256(stdout)
    if digest != expected_sha:
        raise CheckError(f"table stdout sha256 {digest}, expected {expected_sha}")
    rows = table_rows(stdout)
    for r, g, mu, hurwitz in rows:
        if g != 0 or len(mu) > 2:
            continue
        closed = jpt_h01(r, mu[0]) if len(mu) == 1 else jpt_h02(r, *mu)
        if str(closed) != hurwitz:
            raise CheckError(f"r={r} g=0 mu={mu}: table {hurwitz}, closed form {closed}")
    return len(rows)


def _check_answer(expected: str, stdout: bytes) -> int:
    answer = stdout.decode().strip()
    if answer != expected:
        raise CheckError(f"compute printed {answer!r}, expected {expected!r}")
    return 1


def _check_verify(expected: dict[str, int], stdout: bytes) -> int:
    lines = stdout.decode().splitlines()
    if not lines or lines[-1] != "overall: PASS":
        raise CheckError(f"last line {lines[-1:]!r}, expected 'overall: PASS'")
    counts = {}
    for line in lines[:-1]:
        match = _SUITE_LINE.match(line)
        if match is None:
            raise CheckError(f"unexpected verify line {line!r}")
        name, cases, failed, verdict = match.groups()
        if failed != "0" or verdict != "PASS":
            raise CheckError(f"suite {name}: {failed} failed")
        counts[name] = int(cases)
    if counts != expected:
        raise CheckError(f"case counts {counts}, expected {expected}")
    return sum(counts.values())


def reference_values() -> dict[tuple[int, int, tuple[int, ...]], str]:
    """Hurwitz number of every table-sweep row, from the committed outputs."""
    values = {}
    for _, name, sha, _ in TABLE_JOBS:
        data = gzip.decompress((REFERENCE_DIR / name).read_bytes())
        if _sha256(data) != sha:
            raise CheckError(f"reference {name} does not match its sha256")
        for r, g, mu, hurwitz in table_rows(data):
            values[(r, g, mu)] = hurwitz
    return values


def _compute_jobs(seed: int) -> list[Job]:
    reference = reference_values()
    by_cell = defaultdict(list)
    for r, g, mu in reference:
        if len(set(mu)) == DISTINCT_PARTS:
            by_cell[(r, g, sum(mu), len(mu))].append(mu)
    rng = random.Random(seed)
    jobs = []
    for cell in COMPUTE_CELLS:
        r, g = cell[:2]
        mu = rng.choice(sorted(by_cell[cell]))
        argv = ("compute", "--r", str(r), "--genus", str(g), "--mu", ",".join(map(str, mu)))
        jobs.append(Job(argv, partial(_check_answer, reference[(r, g, mu)])))
    return jobs


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job batch of ``workload``; only ``compute-point`` uses the seed."""
    if workload == "table-sweep":
        return [Job(argv, partial(_check_table, sha), states) for argv, _, sha, states in TABLE_JOBS]
    if workload == "compute-point":
        return _compute_jobs(seed)
    return [Job(argv, partial(_check_verify, expected)) for argv, expected in VERIFY_JOBS[workload]]
