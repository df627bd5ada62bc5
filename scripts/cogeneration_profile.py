#!/usr/bin/env python3
"""Print per-length chain-kernel dimension profiles for quotient-coalgebra
pairs, showing where cogeneration is decided.  Compares a generating pair of
subgroups of S3 against a non-generating subgroup of Z4 at several cutoffs."""

import sys

from entwine.catalogue import coset_coideal, group_algebra, self_extension
from entwine.cogalois import quotient_coalgebra
from entwine.cogenerate import cogeneration_check, coinvariant_intersection_check


CASES = [
    ("S3: <(12)> vs <(123)>", "S3", [("(12)",), ("(123)",)]),
    ("S3: <(12)> vs <(13)>", "S3", [("(12)",), ("(13)",)]),
    ("Z4: <g2> vs <g2>", "Z4", [("g2",), ("g2",)]),
    ("Z4: <g> vs <g2>", "Z4", [("g",), ("g2",)]),
]


def main() -> int:
    for label, group, gens in CASES:
        hopf = group_algebra({"group": group})
        quotients = [quotient_coalgebra(hopf.coalgebra, coset_coideal({"group": group}, g[0])) for g in gens]
        report = cogeneration_check(hopf.coalgebra, quotients[0], quotients[1], cutoff=7)
        profile = [k.dim for k in report.kernels_by_length]
        print(label)
        print(f"  kernel profile: {profile}   verdict: {report.verdict}"
              + (f" (decided at length {report.stabilized_at})" if report.stabilized_at else ""))
        meet = coinvariant_intersection_check(self_extension(hopf), report)
        print(
            f"  coinvariants: full={meet.full_coinvariants.dim}"
            f" quotient={tuple(s.dim for s in meet.quotient_coinvariants)}"
            f" intersection={meet.intersection.dim}"
            f" equality={'yes' if meet.equality_holds else 'no'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
