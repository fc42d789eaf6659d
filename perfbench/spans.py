"""Spans around the calls into each layer of the package, recorded from
outside it.

The layers are the package modules ``cli``, ``core``, ``series``,
``oracle``, ``verify`` and ``report``.  :meth:`Tracer.install` wraps

* every function a module imports by name from another layer, in the
  namespace of the importing module, because that is where the name is
  looked up (``cli`` and ``verify`` import ``arrowed_hurwitz``,
  ``orbifold_hurwitz`` and ``count_monodromy_tuples``, ``series`` imports
  ``arrowed_hurwitz``, ...);
* the series operations the workloads spend their time in
  (``Series1``/``Series2`` multiplication, ``Series2`` addition,
  ``exp``/``log``, ``lagrange_invert``) and report rendering.

Each span records name, layer, start, end, parent and an exception name;
spans stay in memory and are written out at the end.  A layer's busy
time is the sum of its spans' self times: a span's duration minus the
durations of its direct children.  Counts are taken at the same
boundaries, outside the timed interval.
"""

from __future__ import annotations

import importlib
import inspect
import json
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "core", "series", "oracle", "verify", "report")
# Modules that import other layers' functions by name.
CONSUMERS = ("cli", "verify", "series")
# Suites the workloads run; each gets a verify.<suite>_s metric.
SUITES = ("ode", "pde", "f02", "oracle")


def _series1_products(a, b) -> int:
    """Non-zero coefficient pairs (i, j) with i + j within the truncation."""
    if not isinstance(b, type(a)):
        return 0
    n = min(a.order, b.order)
    right = [j for j, v in enumerate(b.coefficients[: n + 1]) if v]
    return sum(bisect_right(right, n - i) for i, v in enumerate(a.coefficients[: n + 1]) if v)


def _series2_products(a, b) -> int:
    """Non-zero coefficient pairs whose total degree is within the truncation."""
    if not isinstance(b, type(a)):
        return 0
    n = min(a.order, b.order)

    def by_degree(s):
        hist = [0] * (n + 1)
        for (i, j), _ in s.terms():
            if i + j <= n:
                hist[i + j] += 1
        return hist

    left = by_degree(a)
    right_upto = list(accumulate(by_degree(b)))
    return sum(count * right_upto[n - t] for t, count in enumerate(left))


class Tracer:
    """Records spans while installed; :meth:`metrics` reduces them."""

    def __init__(self) -> None:
        # [name, layer, start_ns, end_ns, parent index or -1, job, exception name]
        self.spans: list[list] = []
        self.job = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._memos: dict[int, tuple[int, object]] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._memo_type = None
        self._estimated_steps = None

    # -- recording ---------------------------------------------------------

    def call(self, name: str, layer: str, fn, args=(), kwargs=None):
        """Run ``fn`` inside a new span; returns (result, span)."""
        span = [name, layer, 0, 0, self._stack[-1] if self._stack else -1, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {})), span
        except BaseException as exc:
            span[6] = type(exc).__name__
            raise
        finally:
            span[3] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, layer: str, after=None) -> None:
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            result, span = tracer.call(name, layer, original, args, kwargs)
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    # -- hooks (run after the call, outside its span) -----------------------

    def _note_memos(self, span, args, result) -> None:
        for arg in args:
            if isinstance(arg, self._memo_type):
                self._memos.setdefault(id(arg), (self.job, arg))

    def _note_report(self, span, args, result) -> None:
        suite = result.suite.split()[0]
        self.counts[f"verify.{suite}_ns"] += span[3] - span[2]
        self.counts["verify.checks"] += len(result.cases)
        self.counts["verify.failed"] += len(result.failures)

    def _note_oracle(self, span, args, result) -> None:
        inst = args[0]
        self.counts["oracle.est_steps"] += self._estimated_steps(inst.r, inst.d, inst.s)

    def _products(self, key: str, count):
        def note(span, args, result) -> None:
            self.counts[key] += count(*args)

        return note

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"orbifold_hurwitz.{layer}") for layer in LAYERS}
        self._memo_type = modules["core"].MemoTable
        self._estimated_steps = modules["oracle"].estimated_steps
        by_module = {module.__name__: layer for layer, module in modules.items()}
        hooks = {"core": self._note_memos, "verify": self._note_report}
        for consumer in CONSUMERS:
            module = modules[consumer]
            for attr, obj in list(vars(module).items()):
                layer = by_module.get(getattr(obj, "__module__", None))
                if (
                    layer in (None, consumer)
                    or not callable(obj)
                    or isinstance(obj, type)
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                after = self._note_oracle if attr == "count_monodromy_tuples" else hooks.get(layer)
                self._wrap(module, attr, f"{layer}.{attr}", layer, after)
        series = modules["series"]
        s1, s2 = series.Series1, series.Series2
        mul1 = self._products("series.mul1_products", _series1_products)
        mul2 = self._products("series.mul2_products", _series2_products)
        for owner, attr, name, after in (
            (s1, "__mul__", "series.mul1", mul1),
            (s1, "__rmul__", "series.mul1", mul1),
            (s2, "__mul__", "series.mul2", mul2),
            (s2, "__rmul__", "series.mul2", mul2),
            (s2, "__add__", "series.add2", None),
            (s2, "__radd__", "series.add2", None),
            (s1, "exp", "series.explog", None),
            (s1, "log", "series.explog", None),
            (s2, "log", "series.explog", None),
            (series, "lagrange_invert", "series.lagrange", None),
        ):
            self._wrap(owner, attr, name, "series", after)
        report = modules["report"].VerificationReport
        self._wrap(report, "__str__", "report.render", "report")
        self._wrap(report, "to_dict", "report.render", "report")

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def job_states(self) -> Counter:
        """Memo states per job: entries of every MemoTable a core call received."""
        states: Counter = Counter()
        for job, memo in self._memos.values():
            states[job] += len(memo)
        return states

    def metrics(self, import_ns: int, overhead_ns: int, stdout_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; the arguments are
        measured by the caller: the CLI import time, the traced minus the
        plain batch time, and the bytes the traced jobs wrote to stdout."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, job, error in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        busy = Counter()
        total = Counter()
        calls = Counter()
        refusals = 0
        for index, (name, layer, start, end, parent, job, error) in enumerate(self.spans):
            busy[layer] += end - start - child_ns[index]
            total[name] += end - start
            calls[name] += 1
            if name == "oracle.count_monodromy_tuples" and error is not None:
                refusals += 1
        main_ns = total["cli.main"]
        core_calls = sum(n for name, n in calls.items() if name.startswith("core."))
        states = sum(self.job_states().values())
        instances = calls["oracle.count_monodromy_tuples"]
        c = self.counts

        def s(ns):
            return ns / 1e9

        def share(layer):
            return busy[layer] / main_ns if main_ns else 0.0

        def per_s(count, ns):
            return count / s(ns) if ns else 0.0

        out = {
            "cli.import_s": (s(import_ns), "s"),
            "cli.main_s": (s(main_ns), "s"),
            "cli.self_s": (s(busy["cli"]), "s"),
            "cli.stdout_bytes": (stdout_bytes, "bytes"),
            "core.calls": (core_calls, "count"),
            "core.busy_s": (s(busy["core"]), "s"),
            "core.share": (share("core"), "ratio"),
            "core.states": (states, "count"),
            "core.new_states_per_s": (per_s(states, busy["core"]), "1/s"),
            "core.states_per_call": (states / core_calls if core_calls else 0.0, "ratio"),
            "series.busy_s": (s(busy["series"]), "s"),
            "series.share": (share("series"), "ratio"),
            "series.mul1_calls": (calls["series.mul1"], "count"),
            "series.mul1_s": (s(total["series.mul1"]), "s"),
            "series.mul1_products": (c["series.mul1_products"], "count"),
            "series.mul2_calls": (calls["series.mul2"], "count"),
            "series.mul2_s": (s(total["series.mul2"]), "s"),
            "series.mul2_products": (c["series.mul2_products"], "count"),
            "series.add2_s": (s(total["series.add2"]), "s"),
            "series.explog_s": (s(total["series.explog"]), "s"),
            "series.lagrange_s": (s(total["series.lagrange"]), "s"),
            "oracle.instances": (instances, "count"),
            "oracle.busy_s": (s(busy["oracle"]), "s"),
            "oracle.share": (share("oracle"), "ratio"),
            "oracle.est_steps": (c["oracle.est_steps"], "count"),
            "oracle.est_steps_per_s": (per_s(c["oracle.est_steps"], busy["oracle"]), "1/s"),
            "oracle.refusals": (refusals, "count"),
            "verify.busy_s": (s(busy["verify"]), "s"),
        }
        for suite in SUITES:
            out[f"verify.{suite}_s"] = (s(c[f"verify.{suite}_ns"]), "s")
        out.update(
            {
                "verify.checks": (c["verify.checks"], "count"),
                "verify.failed": (c["verify.failed"], "count"),
                "report.render_s": (s(total["report.render"]), "s"),
                "trace.overhead_s": (s(overhead_ns), "s"),
                "trace.spans": (len(self.spans), "count"),
            }
        )
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "job", "error")
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(dict(zip(keys, span))) + "\n")
