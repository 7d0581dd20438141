#!/usr/bin/env python3
"""Run the exhaustive two-points census over F_q and print the breakdown.

Usage: python scripts/census_222.py [q]
"""

import sys
import time

from quotbilin.cases222 import enumerate_222, enumerate_quot_classes_22


def main() -> int:
    q = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    start = time.time()
    census = enumerate_222(q)
    elapsed = time.time() - start
    actions = len({m.X for m in enumerate_quot_classes_22(q)})
    print(f"census over F_{q}: {census.total_points} points from "
          f"{census.quot_classes}^2 framed-module class pairs with "
          f"{actions} distinct actions ({elapsed:.1f}s)")
    print(f"{'label':<22} {'tensor class':<18} {'count':>6}")
    print("-" * 48)
    for label, tlabel, count in census.rows():
        print(f"{label:<22} {tlabel:<18} {count:>6}")
    print("-" * 48)
    print(f"border-rank-3 labels: {census.border_rank_3} (must be 0)")
    print(f"forced-consequence failures: {census.forced_failures} (must be 0)")
    return 0 if census.border_rank_3 == 0 and census.forced_failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
