#!/usr/bin/env python3
"""Tabulate avoider counts over all boards within an n-by-n box.

Counts full placements avoiding each requested pattern per board, flags every
board whose counts differ among the requested patterns, and totals the
per-size distribution.  The n-by-n rows reproduce the Catalan numbers.
"""

import argparse
import sys
from collections import Counter

from rookbij.cli import int_option
from rookbij.enumeration import MAX_SWEEP_N, boards_within, count_avoiders
from rookbij.errors import ParseError
from rookbij.placement import Pattern


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int_option, default=5)
    parser.add_argument("--patterns", default="231,312",
                        help="comma-separated permutation words")
    parser.add_argument("--nonzero-only", action="store_true",
                        help="skip boards admitting no full placement")
    args = parser.parse_args()

    if not 1 <= args.max_n <= MAX_SWEEP_N:
        parser.error(f"--max-n must be between 1 and {MAX_SWEEP_N}")
    try:
        patterns = [Pattern.parse(w) for w in args.patterns.split(",")]
    except ParseError as exc:
        parser.error(str(exc))
    header = " ".join(f"{str(p):>6}" for p in patterns)
    print(f"{'board':<16}{header}")
    totals: Counter[str] = Counter()
    mismatches = 0
    for board in boards_within(args.max_n, full_only=args.nonzero_only):
        counts = [count_avoiders(board, p) for p in patterns]
        cells = " ".join(f"{c:>6}" for c in counts)
        marker = ""
        if len(set(counts)) > 1:
            marker = "  <- differs"
            mismatches += 1
        print(f"{str(board):<16}{cells}{marker}")
        for p, c in zip(patterns, counts):
            totals[str(p)] += c
    print(f"{'total':<16}" + " ".join(f"{totals[str(p)]:>6}" for p in patterns))
    print(f"{mismatches} boards with differing counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
