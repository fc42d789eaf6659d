"""The benchmark tracer in ``perfbench/spans.py`` can patch every name it
wraps and puts each one back.

The tracer wraps attributes by ``vars(owner)[attr]``, so a name that a class
only inherits makes ``install`` fail with a ``KeyError``; this test catches
that here instead of in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from orbifold_hurwitz import cli, report, series

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_and_remove_restores(capsys):
    owners = [series.Series1, series.Series2, series, cli, report.VerificationReport]
    before = [dict(vars(owner)) for owner in owners]
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._undo)
        for owner, attr, original in wrapped:
            assert vars(owner)[attr].__wrapped__ is original
        # every suite runs through the wrapped names and their hooks
        assert cli.main(["verify", "--suite", "all"]) == 0
    finally:
        tracer.remove()
    assert capsys.readouterr().out.endswith("overall: PASS\n")
    assert tracer.counts["verify.checks"] > 0 and tracer.counts["verify.failed"] == 0
    names = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in wrapped}
    for attr in ("__mul__", "__rmul__", "exp", "log"):
        assert ("Series1", attr) in names
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "log"):
        assert ("Series2", attr) in names
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original
    assert [dict(vars(owner)) for owner in owners] == before


def test_tracer_sees_every_memo_the_cli_hands_to_core(capsys):
    # the gate of a traced benchmark run: the CLI passes its MemoTable to a
    # core name it imports, so the tracer counts the memo states of each job
    jobs = [
        (["table", "--r", "1", "--degree-max", "16", "--genus-max", "2"], 2741),
        (["table", "--r", "2", "--degree-max", "20", "--genus-max", "2"], 4610),
        (["compute", "--r", "1", "--genus", "2", "--mu", "3,2,2,1,1"], 256),
    ]
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        for job, (argv, _) in enumerate(jobs):
            tracer.job = job
            assert cli.main(argv) == 0, argv
    finally:
        tracer.remove()
    capsys.readouterr()
    assert tracer.job_states() == {job: states for job, (_, states) in enumerate(jobs)}
