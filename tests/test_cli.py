"""End-to-end CLI contract: exit codes, serialization, exactness."""

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from orbifold_hurwitz import cli
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
    if jsonschema:
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
    if jsonschema:
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


def test_table_over_budget_exits_2():
    proc = run_cli("table", "--r", "1", "--genus", "300", "--degree-max", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


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
    if jsonschema:
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
    if jsonschema:
        jsonschema.validate(reports, load_schema("verify"))
    assert cli.dump_json(reports) + "\n" == proc.stdout
    # report objects reconstruct losslessly from their serialization
    rebuilt = [VerificationReport.from_dict(r) for r in reports]
    assert [r.to_dict() for r in rebuilt] == reports


def test_verify_bad_flags_exit_2():
    proc = run_cli("verify", "--suite", "unknown")
    assert proc.returncode == 2
    proc = run_cli("verify", "--suite", "jpt", "--r", "1,zero")
    assert proc.returncode == 2


def test_verify_failure_exits_1(monkeypatch):
    failing = VerificationReport("cayley stub")
    failing.check("stub case", "1", "2")
    monkeypatch.setattr(cli, "verify_cayley", lambda d_max, memo=None: failing)
    assert cli.main(["verify", "--suite", "cayley"]) == 1
