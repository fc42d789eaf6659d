"""Every argv the parser's grammar allows ends in exit 0 or exit 2.

The argv are drawn from :func:`orbifold_hurwitz.cli.build_parser` itself:
every subcommand and every flag, integers from small, boundary and huge
(past 2^63) values, comma lists of them and malformed lists where a flag
takes a list, and an ``--output`` that can or cannot be written.  Exit 2
leaves stdout empty and prints one stderr line,
``orbifold-hurwitz <command>: error: <message>``; exit 0 prints something,
and printed JSON validates against ``docs/schemas``.  A hang meets a 10 s
alarm.
"""

import io
import json
import signal
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbifold_hurwitz import cli

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
INTS = [-1, 0, 1, 2, 3, 2**63, 10**20]
# flags whose type is a comma list of integers
LIST_FLAGS = {("compute", "--mu"), ("verify", "--r")}
MALFORMED_LISTS = ["", "1,,2", "x", "1,", ","]
# stand-ins for a writable --output path and for one under a plain file
OUTPUT, UNWRITABLE = "<output>", "<unwritable>"


def flag_values(command, action):
    """The values drawn for one flag; True stands for a flag without one."""
    if action.nargs == 0:
        return st.just(True)
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.dest == "output":
        return st.sampled_from([OUTPUT, UNWRITABLE])
    if (command, action.option_strings[0]) in LIST_FLAGS:
        values = st.lists(st.sampled_from(INTS), min_size=1, max_size=3)
        return st.one_of(
            values.map(lambda vs: ",".join(map(str, vs))), st.sampled_from(MALFORMED_LISTS)
        )
    return st.sampled_from(INTS).map(str)


def subcommand_argv(command, subparser):
    required, optional = {}, {}
    for action in subparser._actions:
        if action.option_strings and action.dest != "help":
            side = required if action.required else optional
            side[action.option_strings[0]] = flag_values(command, action)

    def argv(flags):
        out = [command]
        for flag, value in flags.items():
            out += [flag] if value is True else [flag, value]
        return out

    return st.fixed_dictionaries(required, optional=optional).map(argv)


def grammar():
    (commands,) = [
        action.choices for action in cli.build_parser()._actions if action.choices
    ]
    return st.one_of(
        [subcommand_argv(name, sub) for name, sub in sorted(commands.items())]
    )


def _hung(signum, frame):
    raise TimeoutError("no exit within 10 s")


def run(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, in-process."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as handle:
        return json.load(handle)


def prints_json(argv):
    if "--format" in argv:
        return argv[argv.index("--format") + 1] == "json"
    return "--json" in argv


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(grammar())
# shapes that once ended in exit 70, a hang, and exit 0 with nothing printed
@example(["compute", "--r", "2", "--genus", "0", "--mu", str(10**20)])
@example(["table", "--r", "2", "--degree-max", "1", "--genus-max", str(2**63)])
@example(["series", "--which", "f01", "--r", "3", "--order", "2"])
def test_every_argv_ends_in_exit_0_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        target, plain_file = Path(tmp, "out"), Path(tmp, "file")
        plain_file.touch()
        paths = {OUTPUT: str(target), UNWRITABLE: str(plain_file / "out")}
        argv = [paths.get(value, value) for value in argv]
        code, stdout, stderr = run(argv)
        assert code in (0, 2), (argv, code, stderr)
        if code == 2:
            assert stdout == "", argv
            # one line from the subcommand's parser, without the usage block
            assert stderr.startswith(f"orbifold-hurwitz {argv[0]}: error: "), (argv, stderr)
            assert stderr.count("\n") == 1, (argv, stderr)
            return
        printed = target.read_text() if "--output" in argv else stdout
    assert printed, argv
    if prints_json(argv):
        jsonschema.validate(json.loads(printed), load_schema(argv[0]))
