"""The degree-layer fill behind ``table``: it stores the states the rows'
own queries would store, builds each profile's plan once, keeps the
parity checks, and ``table`` writes its output in pieces."""

import contextlib
import io
import json
import os
import tracemalloc

import pytest

import orbifold_hurwitz.core as core_module
from orbifold_hurwitz import HurwitzIndex, MemoTable, arrowed_hurwitz, partitions
from orbifold_hurwitz import cli


def demand_memo(r, g_min, g_max, degree_max):
    memo = MemoTable()
    for g in range(g_min, g_max + 1):
        for d in range(r, degree_max + 1, r):
            for mu in partitions(d):
                arrowed_hurwitz(HurwitzIndex(r, g, mu), memo)
    return memo


def decoded(memo):
    return {
        (r, g, core_module._decode(code)): value
        for (r, g), layer in memo._table.items()
        for code, value in layer.items()
    }


GRID = [
    (r, g_min, g_max, degree_max)
    for r, degree_max in ((1, 8), (2, 10), (3, 9), (4, 12), (5, 10))
    for g_min in range(3)
    for g_max in range(g_min, 4)
]


@pytest.mark.parametrize("r, g_min, g_max, degree_max", GRID)
def test_fill_stores_exactly_the_demand_memo(r, g_min, g_max, degree_max):
    filled = MemoTable()
    core_module.fill_table(r, g_min, g_max, degree_max, filled)
    expected = demand_memo(r, g_min, g_max, degree_max)
    assert decoded(filled) == decoded(expected)
    assert len(filled) == len(expected)


@pytest.mark.parametrize(
    "r, g_min, g_max, states", [(1, 2, 2, 812), (2, 1, 3, 635), (3, 2, 3, 483)]
)
def test_fill_state_counts(r, g_min, g_max, states):
    filled = MemoTable()
    core_module.fill_table(r, g_min, g_max, 12, filled)
    assert decoded(filled) == decoded(demand_memo(r, g_min, g_max, 12))
    assert len(filled) == states


@pytest.mark.parametrize("r, degree_max, plans, states", [(1, 16, 914, 2741), (2, 20, 1537, 4610)])
def test_fill_plans_each_profile_once(monkeypatch, r, degree_max, plans, states):
    built = []
    plan = core_module._plan

    def counted(r, code):
        built.append(code)
        return plan(r, code)

    monkeypatch.setattr(core_module, "_plan", counted)
    filled = MemoTable()
    core_module.fill_table(r, 0, 2, degree_max, filled)
    assert len(built) == len(set(built)) == plans
    assert len(filled) == states


def test_fill_raises_on_the_odd_loop_mutant(monkeypatch):
    splits = core_module._submultiset_splits

    def one_extra_way(r, runs):
        *others, (left, right, ways) = splits(r, runs)
        return [*others, (left, right, ways + 1)]

    monkeypatch.setattr(core_module, "_submultiset_splits", one_extra_way)
    with pytest.raises(ArithmeticError, match="odd loop sum"):
        core_module.fill_table(2, 0, 1, 8, MemoTable())


def test_fill_breaks_the_sum_rule_under_the_even_mutant(monkeypatch):
    from test_sum_rule import GRID as SUM_GRID, S_MAX, log_z, weighted_row

    splits = core_module._submultiset_splits

    def extra_ways(r, runs):
        found = splits(r, runs)
        for i in (0, -1):
            left, right, ways = found[i]
            found[i] = (left, right, ways + 1)
        return found

    monkeypatch.setattr(core_module, "_submultiset_splits", extra_ways)
    memos = {}
    for r, d_max in SUM_GRID:
        # every (d, s) of the sum rule has genus at most (S_MAX - 1 + 1) // 2
        memos[r] = MemoTable()
        core_module.fill_table(r, 0, S_MAX // 2, d_max, memos[r])

    def no_demand(*args):
        raise AssertionError("a sum-rule value was not filled")

    monkeypatch.setattr(core_module, "_plan", no_demand)
    wrong = []
    for r, d_max in SUM_GRID:
        logs = log_z(r, d_max, S_MAX)
        for d in range(r, d_max + 1, r):
            for s in range(S_MAX + 1):
                if logs[d][s] != weighted_row(r, d, s, memos[r]):
                    wrong.append((r, d, s))
    assert len(wrong) > 100


def test_table_output_refused_before_the_fill(monkeypatch, tmp_path, capsys):
    def never(*args):
        raise AssertionError("the fill ran")

    monkeypatch.setattr(cli, "fill_table", never)
    target = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(SystemExit) as stopped:
        cli.main(["table", "--r", "2", "--genus-max", "2", "--degree-max", "20", "--output", str(target)])
    assert stopped.value.code == 2
    assert capsys.readouterr().err.startswith(f"orbifold-hurwitz table: error: cannot write {target}")


def test_over_budget_table_leaves_its_output_file_alone(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"kept\n")
    with pytest.raises(SystemExit) as stopped:
        cli.main(["table", "--r", "1", "--degree-max", "60", "--output", str(target)])
    assert stopped.value.code == 2
    assert target.read_bytes() == b"kept\n"


def test_json_table_memory_peak():
    argv = ["table", "--r", "2", "--genus-max", "2", "--degree-max", "20", "--format", "json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 6 * 2**20


class Recorder(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_json_writer_bytes_and_pieces():
    payload = [{"r": 2, "mu": [k, 1], "hurwitz": f"{k}/3"} for k in range(400)]
    stream = Recorder()
    cli.write_json(payload, stream)
    assert stream.getvalue() == cli.dump_json(payload) + "\n" == json.dumps(payload, indent=2) + "\n"
    assert stream.writes > 2
