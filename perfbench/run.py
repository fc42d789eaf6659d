"""Benchmark of the orbifold-hurwitz command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it inside a source checkout; the package is imported from the
checkout's ``src`` directory, so nothing is installed or built.

``--trace 0`` runs the workload's job batch (see workloads.py) as real
CLI invocations, ``python -m orbifold_hurwitz ...``, one child process at
a time from this single process: a closed loop with one client.  It
repeats the batch until ``--seconds`` have passed, checks every job's
exit code and output, and reports the end-to-end metrics:

* ``setup_s``: median, over several start-ups, of the time from spawn to
  exit of an interpreter that imports ``orbifold_hurwitz.cli`` and builds
  the parser but computes nothing;
* ``wall_s``: median wall time of one whole job batch;
* ``values_per_s``: exact values delivered (table rows, ``compute``
  answers, verify cases) per second of batch wall time;
* ``job_p50_s``, ``job_p75_s``: per-job latency over every job run;
* ``peak_rss_mib``: the largest peak RSS of any one job, from ``wait4``.

``--trace 1`` runs the same batch once in this process through
``orbifold_hurwitz.cli.main``, then once more with spans recorded around
every call into a layer (spans.py), and reports the per-layer metrics;
the difference of the two batch times is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records
the seed, interpreter, commit, ``nproc`` and the raw timing samples in
integer nanoseconds.  Spans of a traced run are written to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import selectors
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

from spans import Tracer
from workloads import WORKLOADS, CheckError, jobs_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_SPAWNS = 21
IMPORT_SPAWNS = 5
JOB_TIMEOUT_NS = 60 * 10**9
# No job starts later than this after the run began, so with the job
# timeout every run ends well within 180 s.
RUN_DEADLINE_NS = 110 * 10**9
SETUP_CODE = "from orbifold_hurwitz.cli import build_parser; build_parser()"


@dataclass
class Child:
    """Outcome of one child process; ``code`` is None after a timeout."""

    code: int | None
    stdout: bytes
    stderr: bytes
    elapsed_ns: int
    maxrss_kib: int


class JobTimeout(BaseException):
    """An in-process job ran past its timeout."""


def run_child(args: list[str]) -> Child:
    """Run one child to completion, reading both pipes; kill it on timeout.

    The child is reaped with ``os.wait4`` so that its own peak RSS is
    known (``RUSAGE_CHILDREN`` would be a maximum over all earlier jobs).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter_ns()
    proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            left_ns = start + JOB_TIMEOUT_NS - perf_counter_ns()
            if left_ns <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in selector.select(left_ns / 1e9):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed_ns = perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        None if timed_out else proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        elapsed_ns,
        usage.ru_maxrss,
    )


def report_failure(job, detail: str) -> None:
    print(f"job failed: {' '.join(job.argv)}: {detail}", file=sys.stderr)


def check_job(job, code: int | None, stdout: bytes, stderr: bytes) -> int | None:
    """Values the job delivered, or None (and a message) when it failed."""
    if code != 0:
        reason = "timeout" if code is None else f"exit {code}"
        report_failure(job, f"{reason}: {stderr.decode(errors='replace')[-500:]}")
        return None
    try:
        return job.check(stdout)
    # ValueError, KeyError and TypeError come from output that fails to parse.
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        report_failure(job, f"{type(exc).__name__}: {exc}")
        return None


def median_ns(samples: list[int]) -> int:
    return int(statistics.median(samples))


def measure_setup() -> list[int]:
    """Start-up samples in ns; a first, untimed start-up fills bytecode caches."""
    samples = []
    for attempt in range(SETUP_SPAWNS + 1):
        child = run_child([sys.executable, "-c", SETUP_CODE])
        if child.code != 0:
            raise RuntimeError(f"start-up failed: {child.stderr.decode(errors='replace')}")
        if attempt:
            samples.append(child.elapsed_ns)
    return samples


def end_to_end(jobs, seconds: int, deadline: int):
    setup = measure_setup()
    batches, latencies = [], []
    attempted = failed = values = maxrss = 0
    measure_start = perf_counter_ns()
    while perf_counter_ns() - measure_start < seconds * 10**9:
        batch_start = perf_counter_ns()
        for job in jobs:
            if perf_counter_ns() >= deadline:
                break
            child = run_child([sys.executable, "-m", "orbifold_hurwitz", *job.argv])
            attempted += 1
            latencies.append(child.elapsed_ns)
            maxrss = max(maxrss, child.maxrss_kib)
            delivered = check_job(job, child.code, child.stdout, child.stderr)
            if delivered is None:
                failed += 1
            else:
                values += delivered
        batches.append(perf_counter_ns() - batch_start)
        if perf_counter_ns() >= deadline:
            break
    metrics = {
        "setup_s": (median_ns(setup) / 1e9, "s"),
        "wall_s": (median_ns(batches) / 1e9, "s"),
        "values_per_s": (values / (sum(batches) / 1e9), "1/s"),
        "job_p50_s": (median_ns(latencies) / 1e9, "s"),
        "job_p75_s": (statistics.quantiles(latencies, n=4)[2] / 1e9, "s"),
        "peak_rss_mib": (maxrss / 1024, "MiB"),
    }
    samples = {"setup_ns": setup, "batch_ns": batches, "job_ns": latencies, "job_samples": len(latencies)}
    return metrics, samples, attempted, failed


def cli_import_ns() -> list[int]:
    """Cumulative import time of ``orbifold_hurwitz.cli`` per ``-X importtime``."""
    samples = []
    pattern = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+orbifold_hurwitz\.cli$", re.M)
    for _ in range(IMPORT_SPAWNS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import orbifold_hurwitz.cli"])
        match = pattern.search(child.stderr.decode())
        if child.code != 0 or match is None:
            raise RuntimeError(f"cannot import orbifold_hurwitz.cli: {child.stderr.decode(errors='replace')[-500:]}")
        samples.append(int(match.group(1)) * 1000)
    return samples


def _raise_timeout(signum, frame):
    raise JobTimeout


def in_process_batch(jobs, deadline: int, tracer=None) -> tuple[int, int, set[int], int]:
    """Run the batch through ``cli.main`` in this process, each job under a
    ``SIGALRM`` timeout; returns (ns, attempted, failed job indices, stdout bytes)."""
    from orbifold_hurwitz import cli

    attempted = stdout_bytes = 0
    failed = set()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    start = perf_counter_ns()
    try:
        for index, job in enumerate(jobs):
            if perf_counter_ns() >= deadline:
                break
            attempted += 1
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_NS / 1e9)
                try:
                    if tracer is None:
                        code = cli.main(list(job.argv))
                    else:
                        tracer.job = index
                        code, _ = tracer.call("cli.main", "cli", cli.main, (list(job.argv),))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except JobTimeout:
                    code = None
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            stdout = out.getvalue().encode()
            stdout_bytes += len(stdout)
            if check_job(job, code, stdout, err.getvalue().encode()) is None:
                failed.add(index)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return perf_counter_ns() - start, attempted, failed, stdout_bytes


def traced(jobs, deadline: int):
    """One plain and one traced in-process batch; per-layer metrics."""
    imports = cli_import_ns()
    plain_ns, plain_attempted, plain_failed, _ = in_process_batch(jobs, deadline)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ns, traced_attempted, traced_failed, stdout_bytes = in_process_batch(jobs, deadline, tracer)
    finally:
        tracer.remove()
    states = tracer.job_states()
    for index, job in enumerate(jobs[:traced_attempted]):
        if job.core_states is not None and states[index] != job.core_states:
            report_failure(job, f"traced {states[index]} memo states, expected {job.core_states}")
            traced_failed.add(index)
    attempted = plain_attempted + traced_attempted
    failed = len(plain_failed) + len(traced_failed)
    metrics = tracer.metrics(median_ns(imports), traced_ns - plain_ns, stdout_bytes)
    samples = {"import_ns": imports, "plain_batch_ns": plain_ns, "traced_batch_ns": traced_ns}
    return metrics, samples, attempted, failed, tracer


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbifold_hurwitz" / "cli.py").is_file():
        print(f"error: no orbifold_hurwitz package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = perf_counter_ns() + RUN_DEADLINE_NS
    jobs = jobs_for(args.workload, args.seed)
    if args.trace:
        metrics, samples, attempted, failed, tracer = traced(jobs, deadline)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, samples, attempted, failed = end_to_end(jobs, args.seconds, deadline)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": [" ".join(job.argv) for job in jobs],
        "samples": samples,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
