"""Compute transfer verdicts across a degree range and print the census.

Example:
    python3 scripts/transfer_report.py --q 3 --stop 20
    python3 scripts/transfer_report.py --q 4 --degrees 9,17,21,37,45

For every degree the script reports the coinvariant dimension (domain),
the homology dimension (codomain), the rank of the induced map, and the
mono/epi flags.  Degrees where the map fails to be an isomorphism are
collected in a closing summary, since those are the interesting ones.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from cohitlab.cohit import ResourceLimit
from cohitlab.lambda_algebra import RewriteBudget
from cohitlab.polyspace import check_rank
from cohitlab.transferlab import verdict


def flag(report) -> str:
    if report.isomorphism:
        return "iso"
    marks = []
    if report.injective:
        marks.append("mono")
    if report.surjective:
        marks.append("epi")
    return "+".join(marks) if marks else "neither"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3, help="rank of the transfer")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--stop", type=int, default=20, help="inclusive")
    parser.add_argument("--degrees", type=str, default=None,
                        help="comma-separated list; overrides --start/--stop")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    try:
        check_rank(args.q)
        if args.degrees:
            degrees = [int(tok) for tok in args.degrees.split(",")]
        else:
            degrees = list(range(args.start, args.stop + 1))
        if any(n < 0 for n in degrees):
            raise ValueError(f"degrees must be nonnegative, got {min(degrees)}")
    except ValueError as exc:
        print(f"transfer_report: {exc}", file=sys.stderr)
        return 2

    defects = []
    t0 = time.time()
    for n in degrees:
        try:
            report = verdict(args.q, n)
        except (ResourceLimit, RewriteBudget) as exc:
            print(f"n={n}: stopped ({exc})", file=sys.stderr)
            return 3
        if args.json:
            print(json.dumps(report.to_json(), sort_keys=True))
        else:
            print(f"n={n:>3}  domain={report.domain_dim}  "
                  f"codomain={report.codomain_dim}  rank={report.rank}  "
                  f"{flag(report)}")
        if not report.isomorphism:
            defects.append((n, flag(report)))
    elapsed = time.time() - t0
    if defects:
        print(f"# non-isomorphisms at q={args.q}: "
              + ", ".join(f"n={n} ({kind})" for n, kind in defects),
              file=sys.stderr)
    else:
        print(f"# isomorphism at every scanned degree for q={args.q}",
              file=sys.stderr)
    print(f"# {len(degrees)} degrees in {elapsed:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
