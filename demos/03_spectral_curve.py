#!/usr/bin/env python3
"""The generating function of one-part counts solves a Lambert-type curve.

Collecting the genus-0 one-part counts into y(x) = sum c(d) x^d turns the
quadratic recursion into the first-order ODE x y' (1 - r y) = r y, whose
unique solution with c(r) = 1 is the plane curve

    x^r = y exp(-r y).

Lagrange inversion in w = x^r gives the coefficients (r k)^(k-1) / k! in
closed form, and ``spectral_curve_y_of_x`` fills the series from them, so
the "closed" column restates the library's formula.  The independent
checks are the raw recursion, the ODE, and the curve equation itself.
"""

from fractions import Fraction
from math import factorial

from orbifold_hurwitz import (
    HurwitzIndex,
    MemoTable,
    arrowed_hurwitz,
    lambert_functional_residual,
    spectral_curve_y_of_x,
    spectral_ode_residual,
)


def main() -> None:
    memo = MemoTable()
    for r in (1, 2, 3):
        order = 6 * r
        y = spectral_curve_y_of_x(r, order)
        print(f"r = {r}: y(x) through x^{order}")
        for d, c in enumerate(y.coefficients):
            if not c:
                continue
            k = d // r
            closed = Fraction((r * k) ** (k - 1), factorial(k))
            recursive = arrowed_hurwitz(HurwitzIndex(r, 0, (d,)), memo)
            print(
                f"  [x^{d:2d}] = {str(c):>8s}   closed {str(closed):>8s}"
                f"   recursion {str(recursive):>8s}"
            )
        print(f"  ODE residual vanishes:      {spectral_ode_residual(r, y).is_zero()}")
        print(f"  curve equation residual 0:  {lambert_functional_residual(r, y).is_zero()}")
        print()


if __name__ == "__main__":
    main()
