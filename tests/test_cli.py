"""End-to-end CLI contract: exit codes, serialization, exactness."""

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from orbifold_hurwitz import cli, series, verify
from orbifold_hurwitz.index import BudgetExceededError
from orbifold_hurwitz.report import VerificationReport

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO_ROOT / "docs" / "schemas"

FLOAT_TOKEN = re.compile(r"\d\.\d")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "orbifold_hurwitz", *args],
        capture_output=True,
        text=True,
    )
    assert FLOAT_TOKEN.search(proc.stdout) is None, (
        f"floating-point token in output of {args}: {proc.stdout!r}"
    )
    return proc


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_arrowed_value():
    proc = run_cli("compute", "--r", "2", "--genus", "0", "--mu", "3,1", "--arrowed")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "9/2"


def test_compute_orbifold_value():
    proc = run_cli("compute", "--r", "3", "--genus", "0", "--mu", "3")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/3"


def test_compute_zero_below_orbifold_order():
    proc = run_cli("compute", "--r", "2", "--genus", "0", "--mu", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0"


def test_compute_json_fields_and_round_trip():
    proc = run_cli("compute", "--r", "2", "--genus", "0", "--mu", "3,1", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == {
        "r": 2,
        "g": 0,
        "mu": [3, 1],
        "n": 2,
        "d": 4,
        "m": 2,
        "s": 2,
        "arrowed": "9/2",
        "hurwitz": "3/2",
    }
    # reprinting with the CLI's formatter is byte-identical
    assert cli.dump_json(payload) + "\n" == proc.stdout
    jsonschema.validate(payload, load_schema("compute"))


def test_compute_json_non_divisible_has_null_m_s():
    proc = run_cli("compute", "--r", "2", "--genus", "0", "--mu", "3", "--json")
    payload = json.loads(proc.stdout)
    assert payload["m"] is None and payload["s"] is None
    assert payload["hurwitz"] == "0"


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--r", "0", "--genus", "0", "--mu", "1"),
        ("compute", "--r", "1", "--genus", "-1", "--mu", "1"),
        ("compute", "--r", "1", "--genus", "0", "--mu", "0"),
        ("compute", "--r", "1", "--genus", "0", "--mu", "2,x"),
        ("compute", "--r", "1", "--genus", "0"),
        ("compute", "--r", "1", "--genus", "0", "--mu", "1", "--nope"),
    ],
)
def test_compute_invalid_input_exits_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2


def test_compute_over_budget_exits_2_without_traceback():
    started = time.perf_counter()
    proc = run_cli("compute", "--r", "1", "--genus", "0", "--mu", ",".join(["1"] * 600))
    assert time.perf_counter() - started < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_csv_header_and_rows():
    proc = run_cli("table", "--r", "1", "--genus", "0", "--degree-max", "3", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "r,g,mu,n,d,s,arrowed,hurwitz"
    assert "1,0,3,1,3,2,3/2,1/2" in lines


def test_table_json_rows():
    proc = run_cli("table", "--r", "2", "--genus", "0", "--degree-max", "2", "--format", "json")
    rows = json.loads(proc.stdout)
    assert {"r": 2, "g": 0, "mu": [2], "n": 1, "d": 2, "s": 0, "arrowed": "1", "hurwitz": "1/2"} in rows
    jsonschema.validate(rows, load_schema("table"))
    assert cli.dump_json(rows) + "\n" == proc.stdout


def test_table_empty_admissible_set_prints_header_only():
    proc = run_cli("table", "--r", "5", "--genus", "0", "--degree-max", "3", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "r,g,mu,n,d,s,arrowed,hurwitz"


def test_table_writes_file(tmp_path):
    target = tmp_path / "out.csv"
    proc = run_cli(
        "table", "--r", "1", "--genus", "0", "--genus-max", "1",
        "--degree-max", "2", "--output", str(target),
    )
    assert proc.returncode == 0
    content = target.read_text()
    assert content.startswith("r,g,mu,n,d,s,arrowed,hurwitz")
    assert FLOAT_TOKEN.search(content) is None


def test_table_unwritable_path_exits_2(tmp_path):
    proc = run_cli(
        "table", "--r", "1", "--genus", "0", "--degree-max", "2",
        "--output", str(tmp_path / "missing_dir" / "out.csv"),
    )
    assert proc.returncode == 2


def test_table_bad_genus_range_exits_2():
    proc = run_cli(
        "table", "--r", "1", "--genus", "2", "--genus-max", "1", "--degree-max", "2"
    )
    assert proc.returncode == 2
    assert "--genus-max must be at least --genus" in proc.stderr
    # a negative --genus-max is refused where the flag is declared
    proc = run_cli("table", "--r", "1", "--genus-max", "-1", "--degree-max", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --genus-max: must be at least 0, got '-1'" in proc.stderr


# sha256 of the table stdout for g <= 2, d <= 12, recorded from the
# Fraction-based recursion the integer one replaced.
TABLE_GOLDEN = {
    ("1", "csv"): "26349a0b7659cd2b5bc061b6d58693bbe91101f3f38efddb2f4931468248e47b",
    ("1", "json"): "2038e5662aa1091a1273dffa0e6b5ddf32a9bc342531bc8dc40c3d70883d7c5d",
    ("2", "csv"): "bfb4204f43836d506f394ff8abc264d9a64baadb1327fef865e4f58a621879a2",
    ("2", "json"): "32e4bfa1dc6c5d2368476c03db2699b042627e6517ec5e84300756d1dd17594a",
    ("3", "csv"): "752b7faf313de4a06735631babf64c453d38a95fbd0da9d30de0bdbbcaed2a72",
    ("3", "json"): "6e5cce56c86285d5464b5e1c849d9e3b82b34aef7968fc00993ab526b26820a2",
}


def golden_table_stdout(r, fmt, *interpreter_flags):
    proc = subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "orbifold_hurwitz", "table",
         "--r", r, "--genus", "0", "--genus-max", "2", "--degree-max", "12",
         "--format", fmt],
        capture_output=True,
        check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("r, fmt", sorted(TABLE_GOLDEN))
def test_table_golden_digest(r, fmt):
    digest = hashlib.sha256(golden_table_stdout(r, fmt)).hexdigest()
    assert digest == TABLE_GOLDEN[r, fmt]


def test_table_optimized_interpreter_prints_same_bytes():
    # -O strips the grading asserts; the parity check must not depend on them.
    optimized = golden_table_stdout("2", "csv", "-O")
    assert optimized == golden_table_stdout("2", "csv")
    assert hashlib.sha256(optimized).hexdigest() == TABLE_GOLDEN["2", "csv"]


def test_table_closed_stdout_pipe_exits_141_without_traceback():
    # about 150 kB of output, more than a pipe buffers, so writes must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbifold_hurwitz", "table", "--r", "1",
         "--genus", "0", "--genus-max", "2", "--degree-max", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"r,g,mu,n,d,s,arrowed,hurwitz\r\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr


def test_table_over_budget_exits_2():
    proc = run_cli("table", "--r", "1", "--genus", "300", "--degree-max", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("--r", "1", "--degree-max", "60"), "d=60 n=60"),
        (("--r", "1", "--degree-max", "30", "--genus-max", "0"), "d=30 n=30"),
        (("--r", "2", "--genus", "1", "--genus-max", "4", "--degree-max", "21"), "g=4 d=20 n=20"),
        # no all-ones row of 10^9 parts is built to find that out
        (("--r", "1", "--degree-max", "1000000000"), "d=1000000000 n=1000000000"),
    ],
)
def test_table_admitted_whole_before_the_first_row(argv, refused):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as stopped:
        cli.main(["table", *argv])
    assert time.perf_counter() - started < 1
    assert stopped.value.code == 2
    proc = run_cli("table", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and refused in proc.stderr
    assert "budget" in proc.stderr and "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_curve_text():
    proc = run_cli("series", "--which", "curve", "--r", "1", "--order", "4")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1\t1", "2\t1", "3\t3/2", "4\t8/3"]


def test_series_f01_text():
    proc = run_cli("series", "--which", "f01", "--r", "2", "--order", "4")
    assert proc.stdout.splitlines() == ["2\t1/2", "4\t-1/2"]


def test_series_f02_text():
    proc = run_cli("series", "--which", "f02", "--r", "1", "--order", "2")
    assert proc.stdout.splitlines() == ["1,1\t1/2"]


def test_series_w01_skips_non_divisible_degrees():
    proc = run_cli("series", "--which", "w01", "--r", "2", "--order", "4")
    assert proc.stdout.splitlines() == ["2\t1", "4\t2"]


def test_series_json_round_trip_and_schema():
    proc = run_cli(
        "series", "--which", "f02", "--r", "2", "--order", "4", "--format", "json"
    )
    payload = json.loads(proc.stdout)
    assert payload["variables"] == ["z1", "z2"]
    assert {"exponents": [1, 1], "coefficient": "1"} in payload["terms"]
    jsonschema.validate(payload, load_schema("series"))
    assert cli.dump_json(payload) + "\n" == proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("series", "--which", "nope", "--r", "1", "--order", "4"),
        ("series", "--which", "curve", "--r", "1", "--order", "0"),
        ("series", "--which", "curve", "--r", "3", "--order", "2"),
        ("series", "--which", "curve", "--r", "0", "--order", "4"),
    ],
)
def test_series_invalid_flags_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2


# sha256 of the series stdout at order 14, recorded from the per-term
# Fraction engine the integer one replaced.
SERIES_GOLDEN = {
    ("curve", "1", "json"): "4aa6d9ee935a3d347c1a1f559fa21744ec91b3ca8a2659360c91902be3f65a67",
    ("curve", "1", "text"): "08acb534b506e2db6dc823545cd29b6e52a29e0121bbcc7221248d52d2aa9980",
    ("curve", "2", "json"): "7b2bd6b500764993cf12c023409870980e062fc085e8eea7be9364908ff5d183",
    ("curve", "2", "text"): "0fb896dbd90758fea762287858c0cd8ba6c132a4409d6e29b921ec1249bab2ce",
    ("curve", "3", "json"): "536c6a6601124e8d3532fac94e99e72df3c32e0a1552a31440cf2afc4639a833",
    ("curve", "3", "text"): "ec17b21ecd0f8bc68006772c2fbb829261f6f0f14b1bfe16071f71f32f2c7afb",
    ("f01", "1", "json"): "43aef707dfce2e8b70d67f47c6edb2d3df78995a71291f34d3250c1c161fdd75",
    ("f01", "1", "text"): "bbf1dff91cbbc3a2586a9b8f9104bf3c6e294fa4a74e568218c2f02c81481137",
    ("f01", "2", "json"): "bb609b400bb4ecc9d949d1a8fc3668c557cea5cb2f6c5f678c9c934a042cbac5",
    ("f01", "2", "text"): "3f481746484c7453429853412a5a5753dd847300d8df6a7b9655b81cb293593c",
    ("f01", "3", "json"): "12c7c1dee2748c141b73e1443bdf5801b8f42198fa03344d55bfd703fc98a116",
    ("f01", "3", "text"): "bdc6d5f51a2910d47ffdad20aae260113cb066d144e789bd49d1c07a564d0b4f",
    ("f02", "1", "json"): "9e655fbdffb8d1ec92fea089493ea244aceebba64ba4b5b0ca388c0dc0e2b361",
    ("f02", "1", "text"): "f0c284f20a00c7034caeadcb01ad4cd5bdce13020322c345bcb2f373fa587fa2",
    ("f02", "2", "json"): "d1b715e724e01a8ebe2ac3678925fb854ed8208a315ee44cd251a399a4ea2502",
    ("f02", "2", "text"): "9edae33da8626689d76c6cb5d85d1b8773b632a4fb1e502290128c63c397fe0b",
    ("f02", "3", "json"): "ca0c25be8d06891d37670753bfffa0cfafc7e76337b0719b5a28c404f881bfdf",
    ("f02", "3", "text"): "7d93dafa2c832aa8698d3b59743b73b49260d2c080596150c19f253f788c4066",
    ("w01", "1", "json"): "0a61107b8d1af14dc913a0a3809ce0024792f832c8edd8b1efb8ec15fbc44b8d",
    ("w01", "1", "text"): "08acb534b506e2db6dc823545cd29b6e52a29e0121bbcc7221248d52d2aa9980",
    ("w01", "2", "json"): "6a72ad868ef292cb2bd88252091fefa7239b3bd46464cd603cc9a003605c62f4",
    ("w01", "2", "text"): "0fb896dbd90758fea762287858c0cd8ba6c132a4409d6e29b921ec1249bab2ce",
    ("w01", "3", "json"): "0033f938cc45f5ce424ffc59eb63dc3b80b96b404dd30c9cf588c3806af7f873",
    ("w01", "3", "text"): "ec17b21ecd0f8bc68006772c2fbb829261f6f0f14b1bfe16071f71f32f2c7afb",
}


def stdout_digest(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("which, r, fmt", sorted(SERIES_GOLDEN))
def test_series_golden_digest(capsys, which, r, fmt):
    digest = stdout_digest(
        capsys, "series", "--which", which, "--r", r, "--order", "14", "--format", fmt
    )
    assert digest == SERIES_GOLDEN[which, r, fmt]


def test_series_optimized_interpreter_prints_same_bytes():
    argv = ["-m", "orbifold_hurwitz", "series", "--which", "f02", "--r", "2",
            "--order", "14", "--format", "json"]
    debug = subprocess.run([sys.executable, *argv], capture_output=True, check=True)
    optimized = subprocess.run(
        [sys.executable, "-O", *argv], capture_output=True, check=True
    )
    assert optimized.stdout == debug.stdout
    digest = hashlib.sha256(optimized.stdout).hexdigest()
    assert digest == SERIES_GOLDEN["f02", "2", "json"]


@pytest.mark.parametrize(
    "which, r, order",
    [
        ("curve", "1", "2000"),
        ("f02", "1", "400"),
        ("w01", "1", "2000"),
        ("f01", "1", "10000000"),
        # few products, but 10^10 coefficients to build
        ("curve", "10000000000", "10000000000"),
    ],
)
def test_series_over_budget_refused_before_any_work(which, r, order):
    argv = ["series", "--which", which, "--r", r, "--order", order]
    started = time.perf_counter()
    with pytest.raises(SystemExit) as refused:
        cli.main(argv)
    assert time.perf_counter() - started < 1
    assert refused.value.code == 2
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "budget" in proc.stderr and "Traceback" not in proc.stderr


def test_series_budget_admits_the_documented_largest_dumps():
    assert series.series_cost("curve", 1, 143) <= series.SERIES_BUDGET
    assert series.series_cost("curve", 1, 144) > series.SERIES_BUDGET
    assert series.series_cost("f02", 1, 74) <= series.SERIES_BUDGET
    assert series.series_cost("f02", 1, 75) > series.SERIES_BUDGET
    # the verify-series benchmark orders, as series dumps, fit with room
    assert series.series_cost("curve", 1, 80) <= series.SERIES_BUDGET
    assert series.series_cost("f02", 1, 23) <= series.SERIES_BUDGET


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_cayley_passes():
    proc = run_cli("verify", "--suite", "cayley", "--max", "12")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_verify_jpt_r2():
    proc = run_cli("verify", "--suite", "jpt", "--r", "2", "--max-degree", "12")
    assert proc.returncode == 0


def test_verify_oracle_small():
    proc = run_cli(
        "verify", "--suite", "oracle", "--d-max", "3", "--s-max", "3", "--r", "1,3"
    )
    assert proc.returncode == 0


def test_verify_json_schema_and_round_trip():
    proc = run_cli(
        "verify", "--suite", "scaling", "--r", "1,2", "--m-max", "4", "--json"
    )
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    assert all(r["summary"]["pass"] for r in reports)
    jsonschema.validate(reports, load_schema("verify"))
    assert cli.dump_json(reports) + "\n" == proc.stdout
    # report objects reconstruct losslessly from their serialization
    rebuilt = [VerificationReport.from_dict(r) for r in reports]
    assert [r.to_dict() for r in rebuilt] == reports


# sha256 of the verify JSON, recorded from the per-term Fraction engine the
# integer one replaced; the JSON carries every expected and actual value.
VERIFY_GOLDEN = {
    "all": "971e3197054b6d60388374b3a26ee44a59d45ca7d2565084b181f765e5798b78",
    "ode": "deaf4ab75e5b8b0b86ba65e22522a60dda16cf0a957383ead05d77f5a697aad1",
    "f01": "0f7e01a45fef0bdd83a27e6b6db8f379f4dac5dadfc1f52102fe83f3087d462c",
    "f02": "96a5fc0d55a7a1ea8050776ee051a0782ca3982185df37cf7d8a353e22b8ca92",
    "pde": "54c9e65bcc51c5ca538be3f56e46cf365009eba3bc26fd65752e9c0237d3b9f9",
}
VERIFY_GOLDEN_ARGS = {
    "all": (),
    "ode": ("--r", "1,2,3", "--order", "40"),
    "f01": ("--r", "1,2,3", "--order", "24"),
    "f02": ("--r", "1,2,3", "--total-order", "16"),
    "pde": ("--r", "1,2,3", "--total-order", "16"),
}


@pytest.mark.parametrize("suite", sorted(VERIFY_GOLDEN))
def test_verify_golden_digest(capsys, suite):
    argv = ("verify", "--suite", suite, *VERIFY_GOLDEN_ARGS[suite], "--json")
    assert stdout_digest(capsys, *argv) == VERIFY_GOLDEN[suite]


# sha256 of the oracle verify JSON at the two benchmark sizes, recorded
# while the oracle still enumerated every sigma_0 of S_d.
ORACLE_GOLDEN = {
    ("5", "5"): "9d9c0f92df3347fe6173b8997379e386f254d72c4baba0f66dc0c3d8c68d9531",
    ("6", "3"): "4df8385cc69e738c2f4056bfcecf00cf467190bc2106f319ffc500492d54e72b",
}


@pytest.mark.parametrize("d_max, s_max", sorted(ORACLE_GOLDEN))
def test_verify_oracle_golden_digest(capsys, d_max, s_max):
    argv = ("verify", "--suite", "oracle", "--r", "1,2,3",
            "--d-max", d_max, "--s-max", s_max, "--json")
    assert stdout_digest(capsys, *argv) == ORACLE_GOLDEN[d_max, s_max]


def test_verify_oracle_degree_seven_passes(capsys):
    assert cli.main(["verify", "--suite", "oracle", "--d-max", "7"]) == 0
    out = capsys.readouterr().out
    assert "56 cases, 0 failed" in out and out.endswith("overall: PASS\n")


def test_verify_oracle_degree_five_six_branch_points_passes(capsys):
    argv = ["verify", "--suite", "oracle", "--r", "1", "--d-max", "5", "--s-max", "6"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "31 cases, 0 failed" in out and out.endswith("overall: PASS\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "cayley", "--max", "3000"),
        ("--suite", "jpt", "--max-degree", "200"),
        ("--suite", "scaling", "--m-max", "800"),
    ],
)
def test_verify_recursion_suites_refused_before_any_work(argv):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as refused:
        cli.main(["verify", *argv])
    assert time.perf_counter() - started < 1
    assert refused.value.code == 2
    proc = run_cli("verify", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "ode", "--r", "1", "--order", "400"),
        ("--suite", "f02", "--r", "1", "--total-order", "120"),
        ("--suite", "pde", "--r", "2,1", "--total-order", "120"),
        # f01 is held to the r = 1 curve count at every r: 144 is over
        ("--suite", "f01", "--r", "1", "--order", "400"),
        ("--suite", "f01", "--r", "3", "--order", "144"),
        # refused before the suites that come before ode run
        ("--suite", "all", "--order", "400"),
    ],
)
def test_verify_over_series_budget_refused_before_any_work(argv):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as refused:
        cli.main(["verify", *argv])
    assert time.perf_counter() - started < 1
    assert refused.value.code == 2
    proc = run_cli("verify", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "series budget" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "oracle", "--r", "1", "--d-max", "6", "--s-max", "8"),
        ("--suite", "oracle", "--r", "1", "--d-max", "8", "--s-max", "1000000000"),
    ],
)
def test_verify_oracle_over_run_budget_refused_before_any_work(argv):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as refused:
        cli.main(["verify", *argv])
    assert time.perf_counter() - started < 1
    assert refused.value.code == 2
    proc = run_cli("verify", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_oracle_lists_only_degrees_with_cases(capsys):
    started = time.perf_counter()
    assert cli.main(["verify", "--suite", "oracle", "--r", "1", "--d-max", "70"]) == 0
    assert time.perf_counter() - started < 2
    wide = capsys.readouterr().out
    assert cli.main(["verify", "--suite", "oracle", "--r", "1", "--d-max", "5"]) == 0
    narrow = capsys.readouterr().out
    assert "15 cases, 0 failed" in wide
    assert wide.replace("d_max=70", "d_max=5") == narrow


def test_verify_series_budget_admits_the_benchmark_orders():
    # verify-series runs ode at order 80 and pde/f02 at total order 22
    assert series.series_cost("curve", 1, 80) == 259_281
    assert series.series_cost("f02", 1, 22) == 14_950
    assert max(259_281, 14_950) <= series.SERIES_BUDGET


def test_verify_bad_flags_exit_2():
    proc = run_cli("verify", "--suite", "unknown")
    assert proc.returncode == 2
    proc = run_cli("verify", "--suite", "jpt", "--r", "1,zero")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "jpt", "--max-degree", "-7"),
        ("--suite", "all", "--d-max", "0"),
        ("--suite", "cayley", "--max", "0"),
        ("--suite", "oracle", "--s-max", "-1"),
        ("--suite", "ode", "--order", "0"),
        ("--suite", "pde", "--total-order", "-2"),
        ("--suite", "scaling", "--m-max", "0"),
    ],
)
def test_verify_out_of_range_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as refused:
        cli.main(["verify", *argv])
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[2]}: must be at least" in captured.err


SUITE_RUNNERS = (
    "verify_jpt",
    "verify_cayley",
    "verify_against_oracle",
    "verify_f01",
    "verify_f02",
    "verify_spectral_ode",
    "verify_f02_pde",
    "verify_r_scaling",
)


def test_verify_all_admits_every_suite_before_running_one(monkeypatch, capsys):
    called = []
    for name in SUITE_RUNNERS:
        monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
    argv = ["--suite", "all", "--total-order", "74", "--order", "143"]
    started = time.perf_counter()
    with pytest.raises(SystemExit) as refused:
        # scaling, the last suite, is over the recursion budget at m = 800
        cli.main(["verify", *argv, "--d-max", "8", "--m-max", "800"])
    assert time.perf_counter() - started < 1
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "recursion budget" in captured.err
    assert called == []


@pytest.mark.parametrize(
    "argv, refused",
    [
        # f01 --r 2 needs order 4; jpt, cayley, oracle and f01 --r 1 come first
        (("--suite", "all", "--order", "3", "--d-max", "8"), "suite f01 --r 2"),
        (("--suite", "ode", "--r", "1,2", "--order", "3"), "suite ode --r 2"),
        (("--suite", "f02", "--r", "1,3", "--total-order", "2"), "suite f02 --r 3"),
        (("--suite", "pde", "--r", "3", "--total-order", "2"), "suite pde --r 3"),
    ],
)
def test_verify_series_order_refused_before_any_suite_runs(monkeypatch, capsys, argv, refused):
    called = []
    for name in SUITE_RUNNERS:
        monkeypatch.setattr(cli, name, lambda *args, name=name: called.append(name))
    with pytest.raises(SystemExit) as exited:
        cli.main(["verify", *argv])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert not [line for line in captured.out.splitlines() if line.startswith("suite ")]
    assert f"{refused}: order" in captured.err and "least order" in captured.err
    assert called == []


@pytest.mark.parametrize(
    "runner, args, argv",
    [
        ("verify_jpt", (1, 200), ("--suite", "jpt", "--r", "1", "--max-degree", "200")),
        ("verify_cayley", (3000,), ("--suite", "cayley", "--max", "3000")),
        ("verify_against_oracle", ((1,), 6, 8),
         ("--suite", "oracle", "--r", "1", "--d-max", "6", "--s-max", "8")),
        ("verify_f01", (2, 3), ("--suite", "f01", "--r", "2", "--order", "3")),
        ("verify_f01", (1, 144), ("--suite", "f01", "--r", "1", "--order", "144")),
        ("verify_f02", (3, 2), ("--suite", "f02", "--r", "3", "--total-order", "2")),
        ("verify_spectral_ode", (2, 3), ("--suite", "ode", "--r", "2", "--order", "3")),
        ("verify_f02_pde", (1, 120), ("--suite", "pde", "--r", "1", "--total-order", "120")),
        ("verify_r_scaling", (1, 800), ("--suite", "scaling", "--r", "1", "--m-max", "800")),
    ],
)
def test_verify_library_and_cli_refuse_a_suite_alike(capsys, runner, args, argv):
    with pytest.raises((ValueError, BudgetExceededError)) as raised:
        getattr(verify, runner)(*args)
    with pytest.raises(SystemExit) as exited:
        cli.main(["verify", *argv])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {raised.value}\n")


def test_verify_checks_each_run_up_front_and_again_in_its_runner(monkeypatch, capsys):
    calls = []
    for suite, check in list(verify.SUITE_CHECKS.items()):
        def recorded(*args, suite=suite, check=check):
            calls.append((suite, args))
            return check(*args)

        monkeypatch.setitem(verify.SUITE_CHECKS, suite, recorded)
    assert cli.main(["verify", "--suite", "all", "--r", "2,1", "--max-degree", "1"]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")
    runs = [("jpt", (2, 2)), ("jpt", (1, 1)), ("cayley", (12,)), ("oracle", ((2, 1), 4, 4))]
    for suite, order in (("f01", 12), ("f02", 10), ("ode", 20), ("pde", 10), ("scaling", 6)):
        runs += [(suite, (2, order)), (suite, (1, order))]
    assert calls == runs + runs


def test_verify_failure_exits_1(monkeypatch):
    failing = VerificationReport("cayley stub")
    failing.check("stub case", "1", "2")
    monkeypatch.setattr(cli, "verify_cayley", lambda d_max, memo=None: failing)
    assert cli.main(["verify", "--suite", "cayley"]) == 1


def test_unexpected_exception_exits_70_without_traceback(monkeypatch, capsys):
    def broken(d_max, memo=None):
        raise RuntimeError("stub failure")

    monkeypatch.setattr(cli, "verify_cayley", broken)
    monkeypatch.setattr(sys, "argv", ["orbifold-hurwitz", "verify", "--suite", "cayley"])
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == 70
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: stub failure\n"
    assert "Traceback" not in err
