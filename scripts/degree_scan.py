"""Sweep a degree range and tabulate quotient data for one rank.

Example:
    python3 scripts/degree_scan.py --q 4 --start 0 --stop 24 --coinvariants

Columns: degree, mu, cohit dimension, weight-table breakdown, and (on
request) the invariant/coinvariant dimensions.  A degree where mu exceeds
the rank reads 0 throughout: its hit span has no columns (Wood's theorem,
applied in ``cohit.span_for``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from cohitlab.cohit import ResourceLimit, cohit_dim, weight_table
from cohitlab.glaction import coinvariants, invariants
from cohitlab.polyspace import check_rank, mu


def scan_row(q: int, n: int, with_groups: bool) -> dict:
    row: dict = {"n": n, "mu": mu(n)}
    row["dim"] = cohit_dim(q, n)
    row["weights"] = {
        "(" + ",".join(map(str, w)) + ")": d
        for w, d in sorted(weight_table(q, n).items())
        if d
    }
    if with_groups:
        row["invariants"] = invariants(q, n, "gl").dim
        row["coinvariants"] = coinvariants(q, n, "gl").dim
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=4, help="number of variables")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--stop", type=int, default=20, help="inclusive")
    parser.add_argument("--coinvariants", action="store_true",
                        help="also compute invariant/coinvariant dimensions")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per degree")
    args = parser.parse_args(argv)
    try:
        check_rank(args.q)
        if args.start < 0:
            raise ValueError(f"--start must be nonnegative, got {args.start}")
    except ValueError as exc:
        print(f"degree_scan: {exc}", file=sys.stderr)
        return 2

    t0 = time.time()
    degrees = range(args.start, args.stop + 1)  # empty when stop < start
    for n in degrees:
        try:
            row = scan_row(args.q, n, args.coinvariants)
        except ResourceLimit as exc:
            print(f"n={n}: stopped ({exc})", file=sys.stderr)
            return 3
        if args.json:
            print(json.dumps(row, sort_keys=True))
            continue
        weights = " ".join(f"{k}:{v}" for k, v in row["weights"].items())
        extra = ""
        if args.coinvariants:
            extra = (f"  inv={row['invariants']}"
                     f" coinv={row['coinvariants']}")
        print(f"n={n:>3}  mu={row['mu']}  dim={row['dim']:>4}{extra}  "
              f"{weights}")
    print(f"# scanned {len(degrees)} degrees at q={args.q} "
          f"in {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
