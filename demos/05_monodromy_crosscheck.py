#!/usr/bin/env python3
"""An independent route to the same numbers: symmetric-group monodromy.

A degree-d cover is equivalent to a tuple sigma_0 tau_1 ... tau_s sigma_inf
= identity in S_d with sigma_0 of cycle type (r, ..., r), transpositions
tau_k, sigma_inf of cycle type mu, a transitive action (connectedness), and
a labeling of sigma_inf's cycles.  Counting tuples and dividing by d! s!
reproduces the orbifold Hurwitz number -- with no reference to the
edge-contraction recursion, which is what makes the agreement a real test.
Both routes take the same HurwitzIndex.  The count is the same for every
sigma_0 of the type, so the oracle counts from one and multiplies by the
number of them.  It counts layer by layer: after k transpositions it keeps,
for each partial product sigma_0 tau_1 ... tau_k and orbit partition of
the sheets, how many prefixes reach it, rather than visiting each of the
C(d, 2)^s transposition sequences.
"""

from orbifold_hurwitz import (
    HurwitzIndex,
    count_monodromy_tuples,
    raw_tuple_count,
    verify_against_oracle,
)


def main() -> None:
    print("normalization anchors:")
    for r, g, mu in ((3, 0, (3,)), (1, 0, (2, 1)), (2, 0, (3, 1))):
        idx = HurwitzIndex(r, g, mu)
        raw = raw_tuple_count(r, mu, idx.s)
        value = count_monodromy_tuples(idx)
        print(f"  r={r} g={g} mu={mu}: {raw} labeled tuples / (d! s!) = {value}")
    print()

    print("the transitivity filter matters: with sigma_0 trivial and no")
    print("transpositions, two sheets can never be connected:")
    print(f"  transitive tuples: {raw_tuple_count(1, (1, 1), 0)}")
    print(f"  all tuples:        {raw_tuple_count(1, (1, 1), 0, require_transitive=False)}")
    print()

    print("sweep against the recursion (r in {1, 2}, d <= 4, s <= 4):")
    report = verify_against_oracle((1, 2), 4, 4)
    print(f"  {report.summary()}")
    for case in report.cases[:8]:
        print(f"  {case.description:<24s} {case.actual}")
    print("  ...")


if __name__ == "__main__":
    main()
