"""The index (r, g, mu) that names one counting problem.

Both counting routes, the edge-contraction recursion in
:mod:`orbifold_hurwitz.core` and the monodromy count in
:mod:`orbifold_hurwitz.oracle`, take a :class:`HurwitzIndex`.  This module
imports nothing from the package, so neither route has to import the
other to share it, or to share :func:`admit`, the one budget refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "BudgetExceededError",
    "DivisibilityError",
    "HurwitzIndex",
    "admit",
    "canonical_profile",
    "edge_count",
]

Profile = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """A query's cost bound exceeds its budget; it is refused before any work."""


def admit(what: str, cost: int | None, budget: int, layer: str) -> int:
    """Return ``cost`` when it is at most ``budget``, else refuse ``what``.

    Every budget check of the recursion, the oracle and the series layer
    ends here.  ``cost`` is the planned cost, or None when the cost model
    stopped once it was over; ``layer`` names the budget in the message.
    """
    if cost is not None and cost <= budget:
        return cost
    bound = "" if cost is None else f" {cost}"
    raise BudgetExceededError(
        f"{what}: cost bound{bound} exceeds the {layer} budget of {budget}"
    )


class DivisibilityError(ValueError):
    """The orbifold order r does not divide the profile degree d."""


def canonical_profile(mu: Iterable[int]) -> Profile:
    """Validate a profile and return it sorted in descending order."""
    parts = tuple(mu)
    if not parts:
        raise ValueError("profile must have at least one part")
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"profile parts must be positive integers, got {p!r}")
    return tuple(sorted(parts, reverse=True))


def edge_count(r: int, g: int, mu: Profile) -> int | None:
    """s = 2g - 2 + d/r + n for (r, g, mu), or None when r does not divide d.

    s is the number of simple branch points of the cover, equivalently the
    number of edges of its graph.
    """
    d = sum(mu)
    if d % r:
        return None
    return 2 * g - 2 + d // r + len(mu)


@dataclass(frozen=True)
class HurwitzIndex:
    """The triple (r, g, mu) naming one counting problem.

    r is the orbifold order, g the genus, and mu the ordered profile over
    the second branch point.  Derived quantities: degree ``d``, face count
    ``m = d/r`` and edge count ``s`` (see :func:`edge_count`), the latter
    two defined only when r divides d.  Since m, n >= 1, s is never
    negative.
    """

    r: int
    g: int
    mu: Profile

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"r must be a positive integer, got {self.r!r}")
        if not isinstance(self.g, int) or isinstance(self.g, bool) or self.g < 0:
            raise ValueError(f"g must be a non-negative integer, got {self.g!r}")
        parts = tuple(self.mu)
        canonical_profile(parts)
        object.__setattr__(self, "mu", parts)

    @property
    def n(self) -> int:
        return len(self.mu)

    @property
    def d(self) -> int:
        return sum(self.mu)

    @property
    def divisible(self) -> bool:
        """True when r | d, i.e. the count can be non-zero."""
        return self.d % self.r == 0

    @property
    def m(self) -> int:
        if not self.divisible:
            raise DivisibilityError(f"r={self.r} does not divide d={self.d}")
        return self.d // self.r

    @property
    def s(self) -> int:
        s = edge_count(self.r, self.g, self.mu)
        if s is None:
            raise DivisibilityError(f"r={self.r} does not divide d={self.d}")
        return s
