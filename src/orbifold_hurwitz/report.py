"""Structured results for the cross-check suites.

Every suite produces a :class:`VerificationReport`: a suite name plus a
list of cases, each carrying an input description and the expected and
actual values as exact ``num/den`` strings.  Reports serialize to plain
dicts (JSON-safe, no floats) and round-trip losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckCase", "VerificationReport"]


@dataclass(frozen=True)
class CheckCase:
    description: str
    expected: str
    actual: str
    ok: bool

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


@dataclass
class VerificationReport:
    suite: str
    cases: list[CheckCase] = field(default_factory=list)

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
