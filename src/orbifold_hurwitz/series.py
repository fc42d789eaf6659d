"""Truncated power series over exact rationals, and the mirror-curve data.

Two carriers, one layout:

* :class:`Series1`: a univariate series known through a fixed order N,
  i.e. ``c_0 + c_1 t + ... + c_N t^N + O(t^(N+1))``.
* :class:`Series2`: a bivariate series truncated by *total* degree N.

Both are stored as their homogeneous components of degree 0..N, tuples of
``fractions.Fraction`` (one coefficient per degree for ``Series1``), and
share one implementation of every operation except the product: sums,
scalar multiples, ``inverse``, ``log`` and the Euler operator.  There is
no floating point and no rounding.  Instances are immutable, every
operation returns a new series, so concurrent use is safe.

Arithmetic runs on plain ``int``.  A product scales each operand to int
numerators over one common denominator, convolves the ints, and builds
one ``Fraction`` per output coefficient; that kernel is flat for
``Series1`` and by degree for ``Series2``.  ``inverse``, ``log`` and
``exp`` are one-pass recurrences (Knuth, TAOCP vol. 2, 4.7), homogeneous
component by component, with the part found so far kept as int numerators
over its common denominator, so each step is integer convolutions plus
one ``Fraction`` per new coefficient.

Truncation bookkeeping: binary operations carry the minimum of the input
orders; ``compose(f, g)`` with val(g) >= 1 carries
``min(f.order * val(g), g.order)``.  Constructing a series with an
``order`` longer than the coefficient list claims the padded entries are
exact zeros; that is the caller's assertion, used for polynomials.

On top of the engine: Lagrange inversion of ``x = t / f(t)``, the
generalized Lambert curve ``x^r = y exp(-r y)`` as a series ``y(x)``
filled from its coefficient formula ``(r k)^(k-1) / k!`` (which Lagrange
inversion yields; the tests hold the two to each other), the rational
parametrization ``x(z) = z exp(-z^r)`` of that curve, and the genus-0
one- and two-point generating functions in the ``z`` coordinate, both as
closed forms and as sums over exact counts.
Each of these refuses, at entry and through :func:`admit_series`, an order
below its least order or a :func:`series_cost` over ``SERIES_BUDGET``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, mul
from typing import Iterable

from .core import HurwitzIndex, MemoTable, arrowed_hurwitz
from .index import admit

__all__ = [
    "SERIES_BUDGET",
    "Series1",
    "Series2",
    "admit_series",
    "divided_difference",
    "f01_closed_in_z",
    "f01_from_counts",
    "f01_in_x",
    "f02_closed_in_z",
    "f02_from_counts",
    "f02_pde_residual",
    "lagrange_invert",
    "lambert_functional_residual",
    "series_cost",
    "spectral_curve_y_of_x",
    "spectral_ode_residual",
    "x_of_z",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest series_cost a series may have; larger ones are refused before any
# work.  On a 2-vCPU Xeon with CPython 3.11 the largest admitted f02 dump,
# r=1 order 74, took 0.9 s; the largest admitted curve, r=1 order 143, takes
# about 1 ms and its ode suite 0.06 s, so the curve bound is loose.
SERIES_BUDGET = 1_500_000


def series_cost(which: str, r: int, order: int) -> int:
    """Bound on the coefficient products behind one series, plus the
    coefficients it builds.

    ``curve``: k * k * (k + 1) / 2 + order + 1 with k = order // r.
    The curve itself is order + 1 coefficients from a closed formula.  The
    number bounds the ``ode`` suite's residuals, one exp and two products
    of (order + 1)-term series, about 3/2 order^2 coefficient products,
    from order 4 r^3 on; at r = 1 it is the Horner composition that
    ``f01`` is held to.  ``f02``: the log of the divided-difference kernel
    takes at most C(k + 3, 3) products at degree k, C(order + 4, 4) in all,
    more than its coefficient count.  ``f01`` is a closed form: order + 1
    coefficients.  Building it from counts composes by Horner's rule,
    ``order`` products of (order + 1)-term series, the r = 1 curve's count.
    No order is clamped: :func:`admit_series` refuses one below the least.
    """
    if which == "curve":
        k = order // r
        return k * k * (k + 1) // 2 + order + 1
    if which == "f02":
        # C(order + 4, 4) without math.comb, which fails below order -4
        return (order + 1) * (order + 2) * (order + 3) * (order + 4) // 24
    return order + 1


def admit_series(what: str, order: int, least: int, cost: int) -> int:
    """Admit the series ``what`` and return its cost; refuse an order below
    ``least`` (ValueError) or a cost over SERIES_BUDGET (BudgetExceededError)."""
    if order < least:
        raise ValueError(f"{what}: order {order} is below the least order {least}")
    return admit(what, cost, SERIES_BUDGET, "series")


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _scaled(coeffs) -> tuple[list[int], int]:
    """Int numerators of the rationals ``coeffs`` over their least common
    denominator, and that denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of the int polynomials a and b."""
    rb = b[::-1]
    top_a, top_b = len(a) - 1, len(b) - 1
    out = []
    for k in range(n + 1):
        lo = k - top_b if k > top_b else 0
        hi = k if k < top_a else top_a
        start = top_b - k + lo
        out.append(sum(map(mul, a[lo : hi + 1], rb[start : start + hi - lo + 1])))
    return out


def _over_multiple(rows, den: int, q: int) -> tuple[list[list[int]], int]:
    """Int rows over ``den``, rescaled to a denominator that q divides."""
    scale = q // gcd(den, q)
    if scale == 1:
        return rows, den
    return [[v * scale for v in row] for row in rows], den * scale


def _scaled_graded(comps) -> tuple[list[list[int]], int]:
    """:func:`_scaled` for a list of graded components (coefficient lists,
    one per degree), keeping the components apart."""
    flat, den = _scaled([c for comp in comps for c in comp])
    out, start = [], 0
    for comp in comps:
        out.append(flat[start : start + len(comp)])
        start += len(comp)
    return out, den


def _graded_term(a, b, k: int, top: int) -> list[int]:
    """Coefficients 0..top of sum_l a[l] * b[k - l], over the l for which
    both graded int components exist: the degree-k part of a product."""
    acc = [0] * (top + 1)
    for l in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
        acc = list(map(add, acc, _convolve(a[l], b[k - l], top)))
    return acc


def _graded_solve(first, weights, offsets, divisors) -> list[list[Fraction]]:
    """Solve h_0 = first, h_k = (offsets[k] + sum_{0<l<=k} weights[l] h_(k-l))
    / divisors[k] for k = 1 .. len(weights) - 1.

    ``first``, ``weights`` and ``offsets`` hold graded components: the
    coefficient list of one degree, multiplied by convolution (length 1
    for a univariate series, k + 1 for the degree-k part of a bivariate
    one).  The solved components are kept as int numerators over their
    common denominator, so each step is integer convolutions plus one
    ``Fraction`` per new coefficient.
    """
    w, w_den = _scaled_graded(weights)
    solved = [list(first)]
    nums, den = _scaled_graded(solved)
    for k in range(1, len(weights)):
        acc = _graded_term(w, nums, k, len(offsets[k]) - 1)
        comp = [
            (Fraction(v, w_den * den) + offset) / divisors[k]
            for v, offset in zip(acc, offsets[k])
        ]
        nums, den = _over_multiple(nums, den, lcm(*(c.denominator for c in comp)))
        nums.append([c.numerator * (den // c.denominator) for c in comp])
        solved.append(comp)
    return solved


class _Graded:
    """What both carriers share: ``_c[k]`` is the tuple of coefficients of
    total degree k (one for a :class:`Series1`, k + 1 for a
    :class:`Series2`), known through degree len(_c) - 1, and ``_v`` names
    the variable(s).  Every operation but the product runs on those
    components the same way for both; each carrier adds its product
    kernel, its constructors and its accessors.
    """

    __slots__ = ("_c", "_v")

    @classmethod
    def _of(cls, comps, var):
        """The series with homogeneous components ``comps`` (Fractions),
        known through total degree len(comps) - 1."""
        out = cls.__new__(cls)
        out._c = tuple(map(tuple, comps))
        out._v = var
        return out

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return all(v == 0 for comp in self._c for v in comp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def _check(self, other) -> None:
        if self._v != other._v:
            raise ValueError(f"variable mismatch: {self._v} vs {other._v}")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            # zip stops at the shorter series: the result has the smaller order
            comps = [list(map(add, a, b)) for a, b in zip(self._c, other._c)]
            return self._of(comps, self._v)
        comps = list(self._c)
        comps[0] = (comps[0][0] + _frac(other),)
        return self._of(comps, self._v)

    __radd__ = __add__

    def __neg__(self):
        return self._of([[-v for v in comp] for comp in self._c], self._v)

    def __sub__(self, other):
        return self + (-other if isinstance(other, type(self)) else -_frac(other))

    def __rsub__(self, other):
        return (-self) + _frac(other)

    def _times(self, scalar):
        """Multiply by a scalar; the carriers' ``*`` for non-series operands."""
        scale = _frac(scalar)
        return self._of([[scale * v for v in comp] for comp in self._c], self._v)

    def __truediv__(self, other):
        if isinstance(other, type(self)):
            return self * other.inverse()
        return self._times(1 / _frac(other))

    def inverse(self):
        """Multiplicative inverse; requires a non-zero constant term."""
        c0 = self._c[0][0]
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        # degree by degree: H_k = -(F_1 H_(k-1) + ... + F_k H_0) / c0
        zeros = [[_ZERO] * len(comp) for comp in self._c]
        solved = _graded_solve([1 / c0], self._c, zeros, [-c0] * len(self._c))
        return self._of(solved, self._v)

    # -- calculus ---------------------------------------------------------

    def log(self):
        """log of a series with constant term 1."""
        if self._c[0][0] != 1:
            raise ValueError("log needs constant term 1")
        # U = euler(log F) solves F U = euler(F); log F has H_k = U_k / k
        u = _graded_solve(
            [_ZERO], (-self)._c, self.euler()._c, [1] * len(self._c)
        )
        return self._of(
            [[v / k for v in comp] if k else comp for k, comp in enumerate(u)],
            self._v,
        )

    def euler(self):
        """Apply the Euler operator t d/dt, or z1 d/dz1 + z2 d/dz2: scale
        each term by its total degree; preserves the truncation order."""
        return self._of(
            [[k * v for v in comp] for k, comp in enumerate(self._c)], self._v
        )


class Series1(_Graded):
    """Univariate truncated power series with exact rational coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable, order: int | None = None, var: str = "t"):
        c = [_frac(v) for v in coeffs]
        if order is None:
            if not c:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(c) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(c) < order + 1:
            c.extend([_ZERO] * (order + 1 - len(c)))
        self._c = tuple((v,) for v in c[: order + 1])
        self._v = var

    # -- basics ---------------------------------------------------------

    @property
    def var(self) -> str:
        return self._v

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(comp[0] for comp in self._c)

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("negative exponent")
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self._c[k][0]

    __getitem__ = coefficient

    def valuation(self) -> int | None:
        """Index of the first non-zero coefficient, or None for the 0 series."""
        for k, (v,) in enumerate(self._c):
            if v:
                return k
        return None

    def truncated(self, order: int) -> "Series1":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series1(self.coefficients[: order + 1], order, self._v)

    def __repr__(self) -> str:
        terms = []
        for k, (v,) in enumerate(self._c):
            if v:
                terms.append(f"{v}*{self._v}^{k}" if k else f"{v}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O({self._v}^{self.order + 1})>"

    # -- ring operations --------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Series1):
            return self._times(other)
        self._check(other)
        n = min(self.order, other.order)
        a, a_den = _scaled([v for (v,) in self._c[: n + 1]])
        b, b_den = _scaled([v for (v,) in other._c[: n + 1]])
        den = a_den * b_den
        return Series1._of(
            [(Fraction(v, den),) for v in _convolve(a, b, n)], self._v
        )

    __rmul__ = __mul__
    # perfbench/spans.py wraps log by this class's own __dict__
    log = _Graded.log

    # -- calculus ---------------------------------------------------------

    def shifted(self, k: int) -> "Series1":
        """Multiply by t^k; the order grows by k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return Series1._of(((_ZERO,),) * k + self._c, self._v)

    def compose(self, inner: "Series1") -> "Series1":
        """self(inner); requires inner constant term 0.

        The result carries order min(self.order * val(inner), inner.order)
        and lives in the inner series' variable.
        """
        if inner._c[0][0] != 0:
            raise ValueError("composition needs inner constant term 0")
        val = inner.valuation()
        if val is None:
            return Series1([self._c[0][0]], inner.order, inner._v)
        result_order = min(self.order * val, inner.order)
        g = inner if inner.order == result_order else inner.truncated(result_order)
        acc = Series1([self._c[self.order][0]], result_order, inner._v)
        for k in range(self.order - 1, -1, -1):
            acc = acc * g + self._c[k][0]
        return acc

    def exp(self) -> "Series1":
        """exp of a series with constant term 0."""
        if self._c[0][0] != 0:
            raise ValueError("exp needs constant term 0")
        # h = exp(g) solves h' = g' h: n h_n = sum_k k g_k h_(n-k)
        solved = _graded_solve(
            [_ONE], self.euler()._c, [[_ZERO]] * len(self._c), range(len(self._c))
        )
        return Series1._of(solved, self._v)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int, var: str = "t") -> "Series1":
        return cls([_ZERO], order, var)

    @classmethod
    def one(cls, order: int, var: str = "t") -> "Series1":
        return cls([_ONE], order, var)

    @classmethod
    def identity(cls, order: int, var: str = "t") -> "Series1":
        return cls.monomial(1, 1, order, var)

    @classmethod
    def monomial(cls, coeff, k: int, order: int, var: str = "t") -> "Series1":
        if k > order:
            raise ValueError("monomial degree beyond order")
        c = [_ZERO] * (order + 1)
        c[k] = _frac(coeff)
        return cls(c, order, var)


class Series2(_Graded):
    """Bivariate power series truncated by total degree.

    ``_c[k][i]`` is the coefficient of z1^i z2^(k-i).
    """

    __slots__ = ()

    def __init__(self, coeffs, order: int, vars: tuple[str, str] = ("z1", "z2")):
        """``coeffs`` is a mapping (i, j) -> value; entries beyond the
        total-degree truncation are rejected."""
        if order < 0:
            raise ValueError("order must be non-negative")
        comps = [[_ZERO] * (k + 1) for k in range(order + 1)]
        for (i, j), v in dict(coeffs).items():
            if i < 0 or j < 0:
                raise ValueError("negative exponents")
            if i + j > order:
                raise ValueError("coefficient beyond total-degree truncation")
            comps[i + j][i] = _frac(v)
        self._c = tuple(map(tuple, comps))
        self._v = vars

    @property
    def vars(self) -> tuple[str, str]:
        return self._v

    def coefficient(self, i: int, j: int) -> Fraction:
        if i < 0 or j < 0:
            raise IndexError("negative exponent")
        if i + j > self.order:
            raise IndexError(
                f"coefficient ({i},{j}) beyond total-degree truncation {self.order}"
            )
        return self._c[i + j][i]

    def terms(self):
        """Yield ((i, j), coefficient) for the non-zero entries, sorted."""
        n = self.order
        for i in range(n + 1):
            for j in range(n - i + 1):
                if self._c[i + j][i]:
                    yield (i, j), self._c[i + j][i]

    def __repr__(self) -> str:
        z1, z2 = self._v
        parts = [f"{v}*{z1}^{i}*{z2}^{j}" for (i, j), v in self.terms()]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(total deg {self.order + 1})>"

    def __mul__(self, other):
        if not isinstance(other, Series2):
            return self._times(other)
        self._check(other)
        n = min(self.order, other.order)
        a, a_den = _scaled_graded(self._c[: n + 1])
        b, b_den = _scaled_graded(other._c[: n + 1])
        den = a_den * b_den
        return Series2._of(
            [
                [Fraction(v, den) for v in _graded_term(a, b, k, k)]
                for k in range(n + 1)
            ],
            self._v,
        )

    __rmul__ = __mul__
    # perfbench/spans.py wraps these by this class's own __dict__
    __add__ = __radd__ = _Graded.__add__
    log = _Graded.log

    def transposed(self) -> "Series2":
        return Series2._of([comp[::-1] for comp in self._c], self._v)

    def is_symmetric(self) -> bool:
        return self == self.transposed()

    def at_z2_zero(self) -> Series1:
        """Restrict to z2 = 0; a series in z1, full to the same order."""
        return Series1._of([comp[-1:] for comp in self._c], self._v[0])

    def at_z1_zero(self) -> Series1:
        return Series1._of([comp[:1] for comp in self._c], self._v[1])

    @classmethod
    def zero(cls, order: int, vars: tuple[str, str] = ("z1", "z2")) -> "Series2":
        return cls({}, order, vars)

    @classmethod
    def monomial(
        cls, coeff, i: int, j: int, order: int, vars: tuple[str, str] = ("z1", "z2")
    ) -> "Series2":
        return cls({(i, j): _frac(coeff)}, order, vars)


def divided_difference(
    f: Series1, vars: tuple[str, str] = ("z1", "z2")
) -> Series2:
    """(f(z1) - f(z2)) / (z1 - z2) as a bivariate series.

    Uses z1^n - z2^n = (z1 - z2) * h_{n-1}(z1, z2) with h the complete
    homogeneous sum, so every coefficient of total degree k is the
    (k + 1) coefficient of f.  The result is known through total degree
    f.order - 1 and is symmetric by construction.
    """
    if f.order < 1:
        raise ValueError("need at least order 1 to take a divided difference")
    return Series2._of(
        [[c] * (k + 1) for k, c in enumerate(f.coefficients[1:])], vars
    )


# ---------------------------------------------------------------------------
# Lagrange inversion and the generalized Lambert curve
# ---------------------------------------------------------------------------


def lagrange_invert(f: Series1, order: int) -> Series1:
    """Invert x = t / f(t) near 0, for f(0) != 0.

    The inverse is t(x) = sum_{k>=1} [t^(k-1)] f(t)^k * x^k / k.  Needs f
    known through order ``order - 1``.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if f.coefficient(0) == 0:
        raise ValueError("f must have a non-zero constant term")
    if f.order < order - 1:
        raise ValueError(
            f"f is only known through order {f.order}; need {order - 1}"
        )
    work = f.truncated(order - 1) if f.order > order - 1 else f
    coeffs = [_ZERO] * (order + 1)
    power = Series1.one(order - 1, f.var)
    for k in range(1, order + 1):
        power = power * work
        coeffs[k] = power.coefficient(k - 1) / k
    return Series1(coeffs, order, "x")


def spectral_curve_y_of_x(r: int, order: int) -> Series1:
    """Series solution y(x) of x^r = y exp(-r y) with y = x^r + higher.

    Substituting w = x^r turns the curve into w = y / exp(r y), whose
    Lagrange inversion gives the x-coefficient (r k)^(k-1) / k! at degree
    r*k; every degree not divisible by r carries 0.  The series is filled
    from that formula.
    """
    if r < 1:
        raise ValueError("r must be positive")
    admit_series(f"curve r={r} order={order}", order, r, series_cost("curve", r, order))
    coeffs = [_ZERO] * (order + 1)
    for k in range(1, order // r + 1):
        coeffs[r * k] = Fraction((r * k) ** (k - 1), factorial(k))
    return Series1(coeffs, order, "x")


def x_of_z(r: int, order: int) -> Series1:
    """The curve parametrization x(z) = z exp(-z^r), truncated at ``order``."""
    if r < 1:
        raise ValueError("r must be positive")
    if order < 1:
        raise ValueError("order must be at least 1")
    coeffs = [_ZERO] * (order + 1)
    k = 0
    while 1 + r * k <= order:
        coeffs[1 + r * k] = Fraction((-1) ** k, factorial(k))
        k += 1
    return Series1(coeffs, order, "z")


def spectral_ode_residual(r: int, y: Series1) -> Series1:
    """Residual of x y'(x) (1 - r y) - r y for a curve series y(x), such as
    ``spectral_curve_y_of_x(r, order)``; zero if exact.

    At r = 1 this is the same identity as dx/dy = x (1 - y)/y for the
    classical Lambert curve.
    """
    return y.euler() * (1 - r * y) - r * y


def lambert_functional_residual(r: int, y: Series1) -> Series1:
    """Residual of y exp(-r y) - x^r for a curve series y(x), such as
    ``spectral_curve_y_of_x(r, order)``; zero if exact."""
    return y * ((-r) * y).exp() - Series1.monomial(1, r, y.order, y.var)


# ---------------------------------------------------------------------------
# Unstable free energies
# ---------------------------------------------------------------------------


def f01_closed_in_z(r: int, order: int) -> Series1:
    """Closed form of the one-point genus-0 energy on the curve:
    (1/r) z^r - (1/2) z^(2r)."""
    admit_series(f"f01 r={r} order={order}", order, r, series_cost("f01", r, order))
    coeffs = [_ZERO] * (order + 1)
    coeffs[r] = Fraction(1, r)
    if 2 * r <= order:
        coeffs[2 * r] = Fraction(-1, 2)
    return Series1(coeffs, order, "z")


def f01_from_counts(
    r: int, order: int, memo: MemoTable | None = None
) -> Series1:
    """The one-point genus-0 energy sum_d (count(d)/d) x^d, pulled back to z."""
    what = f"f01 from counts r={r} order={order}"
    admit_series(what, order, 1, series_cost("curve", 1, order))
    return f01_in_x(r, order, memo).compose(x_of_z(r, order))


def f01_in_x(r: int, order: int, memo: MemoTable | None = None) -> Series1:
    """sum_d (count(d)/d) x^d; its Euler derivative x d/dx recovers y(x)."""
    memo = MemoTable() if memo is None else memo
    coeffs = [_ZERO] * (order + 1)
    for d in range(1, order + 1):
        coeffs[d] = arrowed_hurwitz(HurwitzIndex(r, 0, (d,)), memo) / d
    return Series1(coeffs, order, "x")


def f02_closed_in_z(r: int, total_order: int) -> Series2:
    """Closed form of the two-point genus-0 energy on the curve.

    Computed as -log DD(x)(z1, z2) - z1^r - z2^r where DD is the divided
    difference of x(z); DD(x) has constant term 1, so the log needs no
    branch choice.
    """
    what = f"f02 r={r} order={total_order}"
    admit_series(what, total_order, max(2, r), series_cost("f02", r, total_order))
    kernel = divided_difference(x_of_z(r, total_order + 1))
    out = -kernel.log()
    out = out - Series2.monomial(1, r, 0, total_order)
    out = out - Series2.monomial(1, 0, r, total_order)
    return out


def f02_from_counts(
    r: int, total_order: int, memo: MemoTable | None = None
) -> Series2:
    """The two-point genus-0 energy as a sum over exact counts:
    sum (count(mu1, mu2) / (mu1 mu2)) x(z1)^mu1 x(z2)^mu2."""
    what = f"f02 from counts r={r} order={total_order}"
    admit_series(what, total_order, 2, series_cost("f02", r, total_order))
    memo = MemoTable() if memo is None else memo
    n = total_order
    x = x_of_z(r, n - 1)
    powers = [None, _scaled(x.coefficients)]
    power = x
    for _ in range(2, n):
        power = power * x
        powers.append(_scaled(power.coefficients))
    # table[i][j] / den accumulates the [z1^i z2^j] coefficient in ints;
    # x^mu has valuation mu, so only i >= mu1, j >= mu2 contribute.
    table = [[0] * (n - i + 1) for i in range(n + 1)]
    den = 1
    for mu1 in range(1, n):
        p1, den1 = powers[mu1]
        for mu2 in range(1, n - mu1 + 1):
            count = arrowed_hurwitz(HurwitzIndex(r, 0, (mu1, mu2)), memo)
            if not count:
                continue
            p2, den2 = powers[mu2]
            weight = count / (mu1 * mu2 * den1 * den2)
            table, den = _over_multiple(table, den, weight.denominator)
            factor = weight.numerator * (den // weight.denominator)
            for i in range(mu1, n - mu2 + 1):
                row, a = table[i], factor * p1[i]
                if a:
                    for j in range(mu2, n - i + 1):
                        row[j] += a * p2[j]
    return Series2._of(
        [[Fraction(table[i][k - i], den) for i in range(k + 1)] for k in range(n + 1)],
        ("z1", "z2"),
    )


def f02_pde_residual(r: int, total_order: int) -> Series2:
    """Residual of the first-order PDE satisfied by the two-point energy.

    Checks (1/r)(z1 d1 + z2 d2) F = DD(x(z) z^r) / DD(x(z)) - z1^r - z2^r
    with F the closed form; exact zero when the identity holds.
    """
    f02 = f02_closed_in_z(r, total_order)
    lhs = f02.euler() / r
    g = x_of_z(r, total_order + 1 - r).shifted(r)
    rhs = divided_difference(g) / divided_difference(x_of_z(r, total_order + 1))
    rhs = rhs - Series2.monomial(1, r, 0, total_order)
    rhs = rhs - Series2.monomial(1, 0, r, total_order)
    return lhs - rhs
