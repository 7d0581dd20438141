#!/usr/bin/env python3
"""Sample random framed modules and compare the two tangent computations.

Each sample is a univariate framed module, whose deformation-side tangent
dimension must equal the Hom oracle's, and a random main pairing point of the
same d (n = 1, d distinct points, framings with no zero row), every tangent
vector of which must pass the homomorphism-triple check.  The pairing points
come from their own generator, so the modules at a seed do not depend on
them.  Exits 1 when any sample mismatches.

Usage: python scripts/tangent_sweep.py [count] [seed] [field]
"""

import random
import sys

from quotbilin.bilin import bilin_tangent, extract_hom_triple, hom_triple_check, main_component_point
from quotbilin.exactalg import QQ, parse_field, rand_matrix
from quotbilin.modcore import rand_framed_module
from quotbilin.quot import hom_KM_univariate, quot_tangent


def _main_point(rng, field, d, r1, r2):
    """A main pairing point at d distinct points (fewer if the field is
    smaller), with framings that have no zero row, so that they generate."""
    p = field.characteristic
    pool = range(p) if p else range(-4, 5)
    points = [field.from_int(v) for v in rng.sample(pool, min(d, len(pool)))]

    def framing(r):
        while True:
            g = rand_matrix(rng, field, len(points), r)
            if all(any(g.row(i)) for i in range(g.rows)):
                return g
    return main_component_point(points, framing(r1), framing(r2))


def _triple_checks(b) -> tuple[int, int]:
    """(passed, total) hom_triple_check verdicts over b's tangent basis; a
    check that raises ArithmeticError counts as failed."""
    basis = bilin_tangent(b).basis
    passed = 0
    for tv in basis:
        try:
            passed += hom_triple_check(b, extract_hom_triple(b, tv))
        except ArithmeticError as exc:
            print(f"      hom_triple_check raised: {exc}")
    return passed, len(basis)


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    field = parse_field(sys.argv[3]) if len(sys.argv) > 3 else QQ
    rng = random.Random(seed)
    point_rng = random.Random(f"{seed}:main")
    mismatches = 0
    for i in range(count):
        d = rng.randint(1, 3)
        r = rng.randint(1, 3)
        m = rand_framed_module(rng, field, 1, d, r)
        tdim = quot_tangent(m).dim
        odim = hom_KM_univariate(m).dim
        b = _main_point(point_rng, field, d, point_rng.randint(1, 3), point_rng.randint(1, 3))
        passed, total = _triple_checks(b)
        status = "ok" if tdim == odim == d * r and passed == total else "MISMATCH"
        if status != "ok":
            mismatches += 1
        print(f"[{i:3}] d={d} r={r} deformation={tdim} hom_oracle={odim} "
              f"expected={d * r} triples={passed}/{total} (r1={b.m1.r} r2={b.m2.r}) {status}")
    print(f"{count} samples over {field.name}, {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
