"""Structured results for the cross-check suites.

Every suite produces a :class:`VerificationReport`: a suite name plus a
list of cases, each carrying an input description and the expected and
actual values as exact ``num/den`` strings.  Reports serialize to plain
dicts (JSON-safe, no floats) and round-trip losslessly.
"""

from __future__ import annotations

from .index import Value

__all__ = ["CheckCase", "VerificationReport"]


class CheckCase(Value):
    """One checked case; an immutable value, equal and hashed by its fields."""

    _fields = ("description", "expected", "actual", "ok")
    description: str
    expected: str
    actual: str
    ok: bool

    def __init__(self, description: str, expected: str, actual: str, ok: bool) -> None:
        vars(self).update(description=description, expected=expected, actual=actual, ok=ok)

    def to_dict(self) -> dict:
        return {
            "input": self.description,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.ok,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckCase":
        return cls(
            description=data["input"],
            expected=data["expected"],
            actual=data["actual"],
            ok=data["pass"],
        )


class VerificationReport(Value):
    """A suite name and its cases.  Its fields are fixed, but :meth:`check`
    appends to the case list, so it is equal by fields but unhashable."""

    _fields = ("suite", "cases")
    __hash__ = None
    suite: str
    cases: list[CheckCase]

    def __init__(self, suite: str, cases: list[CheckCase] | None = None) -> None:
        vars(self).update(suite=suite, cases=[] if cases is None else cases)

    def check(self, description: str, expected, actual) -> bool:
        """Record one case; the case passes iff the two texts are equal."""
        exp = str(expected)
        act = str(actual)
        ok = exp == act
        self.cases.append(CheckCase(description, exp, act, ok))
        return ok

    @property
    def passed(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> list[CheckCase]:
        return [case for case in self.cases if not case.ok]

    def summary(self) -> dict:
        failed = len(self.failures)
        return {"total": len(self.cases), "failed": failed, "pass": failed == 0}

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [case.to_dict() for case in self.cases],
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            suite=data["suite"],
            cases=[CheckCase.from_dict(c) for c in data["cases"]],
        )

    def __str__(self) -> str:
        lines = [
            "suite {0}: {1} cases, {2} failed -> {3}".format(
                self.suite,
                len(self.cases),
                len(self.failures),
                "PASS" if self.passed else "FAIL",
            )
        ]
        for case in self.failures:
            lines.append(
                f"  FAIL {case.description}: expected {case.expected}, actual {case.actual}"
            )
        return "\n".join(lines)
