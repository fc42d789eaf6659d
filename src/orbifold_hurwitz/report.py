"""Structured results for the cross-check suites.

Every suite produces a :class:`VerificationReport`: a suite name plus a
list of cases, each carrying an input description and the expected and
actual values as exact ``num/den`` strings.  Reports serialize to plain
dicts (JSON-safe, no floats) and round-trip losslessly.
"""

from __future__ import annotations

__all__ = ["CheckCase", "VerificationReport"]


# Plain classes with the repr, equality and hashing a dataclass would
# generate: ``dataclasses`` imports ``inspect``, a large share of the
# CLI's start-up.


class CheckCase:
    """One checked case; an immutable value, equal and hashed by its fields."""

    description: str
    expected: str
    actual: str
    ok: bool

    def __init__(self, description: str, expected: str, actual: str, ok: bool) -> None:
        vars(self).update(description=description, expected=expected, actual=actual, ok=ok)

    def _fields(self) -> tuple:
        return (self.description, self.expected, self.actual, self.ok)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"CheckCase(description={self.description!r}, expected={self.expected!r}, "
            f"actual={self.actual!r}, ok={self.ok!r})"
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

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


class VerificationReport:
    """A suite name and its cases; mutable, so equal by fields but unhashable."""

    suite: str
    cases: list[CheckCase]

    def __init__(self, suite: str, cases: list[CheckCase] | None = None) -> None:
        self.suite = suite
        self.cases = [] if cases is None else cases

    def __repr__(self) -> str:
        return f"VerificationReport(suite={self.suite!r}, cases={self.cases!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.suite, self.cases) == (other.suite, other.cases)

    __hash__ = None

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
