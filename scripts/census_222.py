#!/usr/bin/env python3
"""Run the exhaustive two-points census over F_q, print the breakdown and
check every cell against its closed form in q.  The census tallies the
scalar pair's families from the counts of 2-planes of M_2(F_q) by the type
of det on them; for q <= 7 the script also assembles, validates and
classifies every one of those families and compares them with the counts,
so the TOTALLY_DEGENERATE cells are checked by enumeration there.  For
q <= 7 it also runs the membership cross-check (census_cross_check) at
CROSS_CHECK_PAIR_SAMPLE pairs, which compares the census's kernel counts
with the pairings the membership solver finds directly, over one target
action per similarity class.

Usage: python scripts/census_222.py [q ...]     (default q = 2)

Several primes run one after another, for example ``5 7 11 13``.  For each
q it prints the wall time of enumerate_quot_classes_22(q), the class
listing, timed in a call of its own, and of enumerate_222(q), whose total
includes its own listing, and the sha256 of the sorted table
(``json.dumps(census.rows())``), so two checkouts can be compared by time
and answer and the ladder shows where the time goes.

Exits 1 when, for any q, a cell differs from its closed form, a
border-rank-3 tensor or a forced-consequence failure appears, the
enumerated scalar-pair families differ from the plane counts, or the
cross-check fails.
"""

import hashlib
import json
import sys
import time
from collections import Counter

from quotbilin.cases222 import (
    _families,
    _scalar_pair_classes,
    census_cross_check,
    enumerate_222,
    enumerate_quot_classes_22,
)
from quotbilin.exactalg import GF
from quotbilin.tensorlab import LABEL_GENERIC, LABEL_NON_CONCISE, LABEL_W_TYPE

# The smallest pair sample at which losing any one target action makes the
# cross-check over F_3 fail (over F_2 pair sample 10 is enough).
CROSS_CHECK_PAIR_SAMPLE = 20


def closed_form_counts(q: int) -> dict:
    """The census table over F_q as polynomials in q."""
    return {
        ("MAIN_SPLIT", LABEL_GENERIC): q * (q - 1) // 2 * (q + 1) ** 4,
        ("CYCLIC_NILPOTENT", LABEL_W_TYPE): q ** 3 * (q + 1) ** 2,
        ("NON_SPLIT", LABEL_GENERIC): q * (q - 1) // 2 * (q ** 2 + 1) ** 2,
        ("MIXED_12", LABEL_NON_CONCISE): q ** 2 * (q + 1),
        ("MIXED_21", LABEL_NON_CONCISE): q ** 2 * (q + 1),
        ("SPLIT_MIXED_12", LABEL_NON_CONCISE): q * (q - 1) * (q + 1) ** 2,
        ("SPLIT_MIXED_21", LABEL_NON_CONCISE): q * (q - 1) * (q + 1) ** 2,
        ("TOTALLY_DEGENERATE", LABEL_W_TYPE): q * (q - 1) * (q + 1) ** 2,
        ("TOTALLY_DEGENERATE", LABEL_GENERIC): q ** 3 * (q ** 2 + 1),
        ("TOTALLY_DEGENERATE", LABEL_NON_CONCISE): 2 * q * (q + 1),
    }


def table_sha256(census) -> str:
    """sha256 of the sorted (label, tensor class, count) rows, as JSON."""
    return hashlib.sha256(json.dumps(census.rows()).encode()).hexdigest()


def run_census(q: int) -> bool:
    """Print the census over F_q against its closed forms; True when every
    check passes."""
    start = time.perf_counter()
    zero = enumerate_quot_classes_22(q)[0]
    listing = time.perf_counter() - start
    start = time.perf_counter()
    census = enumerate_222(q)
    elapsed = time.perf_counter() - start
    print(f"census over F_{q}: {census.total_points} points from "
          f"{census.quot_classes}^2 framed-module class pairs with "
          f"{q * q + q} distinct actions ({elapsed:.1f}s)")
    expected = closed_form_counts(q)
    print(f"{'label':<22} {'tensor class':<18} {'count':>6} {'closed form':>12}")
    print("-" * 61)
    for label, tlabel in sorted(set(expected) | set(census.counts)):
        count = census.counts.get((label, tlabel), 0)
        want = expected.get((label, tlabel), 0)
        flag = "" if count == want else "  MISMATCH"
        print(f"{label:<22} {tlabel:<18} {count:>6} {want:>12}{flag}")
    print("-" * 61)
    print(f"border-rank-3 labels: {census.border_rank_3} (must be 0)")
    print(f"forced-consequence failures: {census.forced_failures} (must be 0)")
    ok = census.counts == expected and census.border_rank_3 == census.forced_failures == 0
    print("every cell matches its closed form" if census.counts == expected
          else "some cell differs from its closed form")
    print(f"F_{q}: enumerate_quot_classes_22 wall {listing:.3f}s, enumerate_222 wall "
          f"{elapsed:.3f}s, table sha256 {table_sha256(census)}")
    if q <= 7:
        start = time.perf_counter()
        field = GF(q)
        enumerated = Counter(t for _, t in _families(zero, zero, field, {}))
        same = enumerated == _scalar_pair_classes(q, field)
        print(f"scalar pair (0, 0): {sum(enumerated.values())} families enumerated, "
              f"{'equal to' if same else 'DIFFERENT FROM'} the plane counts "
              f"({time.perf_counter() - start:.1f}s)")
        ok = ok and same
    if q <= 7:
        start = time.perf_counter()
        cross = census_cross_check(q, CROSS_CHECK_PAIR_SAMPLE)
        print(f"membership cross-check: {'passed' if cross else 'FAILED'} "
              f"({time.perf_counter() - start:.1f}s)")
        ok = ok and cross
    return ok


def main() -> int:
    qs = [int(a) for a in sys.argv[1:]] or [2]
    results = []
    for k, q in enumerate(qs):
        if k:
            print()
        results.append(run_census(q))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
