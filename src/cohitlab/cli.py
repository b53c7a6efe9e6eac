"""Command-line front end: JSON reports, a persistent result cache, and
named verification suites.

Every subcommand prints one JSON object (or a plain-text table with
``--out table``) and exits 0 on success, 1 when a verification suite
mismatches its stored expectations, 2 on usage or input errors, and 3 when a
computation refuses to start or finish inside the column budget
(``cohit.MAX_COLUMNS``) or the Adem rewrite budget
(``lambda_algebra.MAX_REWRITES``).

The answers of the commands in ``CACHED`` are the only thing cohitlab keeps
on disk: one JSON entry per answer under ``$COHITLAB_CACHE`` (default
``.cohitlab/``, read on every call; ``--no-cache`` bypasses it).  ``main``
fetches, computes and stores them on one path, keyed by command, q, n,
omega (only for ``WEIGHTED``), the group (only for ``GROUPED``), the schema
version and a hash of the engine's ordering conventions, so stale entries
from an incompatible build are ignored rather than trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import cohit, glaction, transferlab
from .cohit import ResourceLimit
from .lambda_algebra import RewriteBudget, ext_dim, is_cycle, psi
from .polyspace import (
    DualElement,
    alpha,
    check_rank,
    minimal_spike,
    mu,
    weight_vector,
)
from .steenrod import is_annihilated

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCES = 3

SCHEMA_VERSION = 2
# Ordering and sign-free conventions the numeric results depend on; any
# change invalidates cached entries via the hash below.
CONVENTIONS = (
    "monomials=weight-desc-then-lex-desc",
    "pivots=largest-column-first",
    "lambda=admissible-iff-doubling",
    "psi=prepend-first-factor",
)

# commands whose answers the result cache stores
CACHED = frozenset(
    "cohit weight invariants coinvariants primitives kameko ext transfer".split()
)
# the cached commands whose answer depends on --group
GROUPED = frozenset(("invariants", "coinvariants"))
# the cached commands whose answer depends on --omega
WEIGHTED = frozenset(("weight", "invariants"))
# the commands whose --q counts variables (for ext it is a word length)
POLYNOMIAL = frozenset(
    "cohit weight invariants coinvariants primitives annihilated kameko psi "
    "transfer spike".split()
)


def convention_hash() -> str:
    blob = f"{SCHEMA_VERSION}:" + ";".join(CONVENTIONS)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# result cache (entry = schema + key + payload + provenance)
# ---------------------------------------------------------------------------


def _entry_path(cache_dir: Path, op: str, key: dict) -> Path:
    blob = json.dumps({"op": op, **key}, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return cache_dir / f"cli_{op}_{digest}.json"


def cache_fetch(cache_dir: Path | None, op: str, key: dict) -> dict | None:
    """Stored payload for (op, key), or None when absent or incompatible."""
    if cache_dir is None:
        return None
    try:
        with open(_entry_path(cache_dir, op, key)) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if entry.get("schema") != SCHEMA_VERSION:
        return None
    stored = entry.get("key", {})
    if stored.get("conventions") != convention_hash():
        return None
    if any(stored.get(k) != v for k, v in key.items()):
        return None
    return entry.get("payload")


def cache_put(cache_dir: Path | None, op: str, key: dict, payload: dict) -> None:
    if cache_dir is None:
        return
    entry = {
        "schema": SCHEMA_VERSION,
        "key": {**key, "op": op, "conventions": convention_hash()},
        "payload": payload,
        "provenance": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    path = _entry_path(cache_dir, op, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        return


def _serve_cached(handler, args, cache_dir: Path | None):
    """Answer a command in ``CACHED``: its stored payload, or compute and store it.

    The key is q, n, for the commands in ``WEIGHTED`` the parsed ``--omega``
    (written back to ``args.omega`` for the handler), and for the commands
    in ``GROUPED`` the group.
    """
    _require(args, "q", "n")
    args.omega = _parse_omega(args.omega) if args.omega else None
    key = {"q": args.q, "n": args.n}
    if args.command in WEIGHTED:
        key["omega"] = args.omega
    if args.command in GROUPED:
        key["group"] = args.group
    payload = cache_fetch(cache_dir, args.command, key)
    if payload is None:
        payload = handler(args)
        cache_put(cache_dir, args.command, key, payload)
    return payload


# ---------------------------------------------------------------------------
# subcommand handlers: return the JSON payload
# ---------------------------------------------------------------------------


def _parse_omega(text: str) -> list[int]:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"bad weight vector {text!r}; expected e.g. 3,1,1")
    if any(x < 0 for x in parts):
        raise UsageError(f"bad weight vector {text!r}; entries must be >= 0")
    return parts


class UsageError(ValueError):
    pass


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required for this command")


def _check_ranges(args) -> None:
    """Reject a negative --n or ext word length, and a polynomial --q out of range."""
    if args.n is not None and args.n < 0:
        raise UsageError(f"--n must be nonnegative, got {args.n}")
    if args.command == "ext" and args.q is not None and args.q < 0:
        raise UsageError(f"--q (the word length) must be nonnegative, got {args.q}")
    if args.q is not None and args.command in POLYNOMIAL:
        try:
            check_rank(args.q)
        except ValueError as exc:
            raise UsageError(f"--q: {exc}")


def _load_dual(args) -> DualElement:
    _require(args, "file")
    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc}")
    except ValueError as exc:
        raise UsageError(f"{args.file} is not valid JSON: {exc}")
    try:
        element = DualElement.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.file} is not a dual element: {exc}")
    if args.q is not None and args.q != element.q:
        raise UsageError(
            f"--q {args.q} disagrees with the file's variable count {element.q}"
        )
    return element


def cmd_cohit(args):
    basis = cohit.cohit_basis(args.q, args.n)
    return {
        "q": args.q,
        "n": args.n,
        "dim": len(basis),
        "basis": [list(m) for m in basis],
    }


def cmd_weight(args):
    if args.omega:
        dim, basis = cohit.weight_subquotient(args.q, args.n, args.omega)
        return {
            "q": args.q,
            "n": args.n,
            "omega": args.omega,
            "dim": dim,
            "basis": [list(m) for m in basis],
        }
    table = cohit.weight_table(args.q, args.n)
    return {
        "q": args.q,
        "n": args.n,
        "weights": {cohit.weight_key(w): d for w, d in sorted(table.items())},
        "total": sum(table.values()),
    }


def cmd_invariants(args):
    return glaction.invariants(args.q, args.n, args.group, omega=args.omega).to_json()


def cmd_coinvariants(args):
    return glaction.coinvariants(args.q, args.n, args.group).to_json()


def cmd_primitives(args):
    span = cohit.span_for(args.q, args.n)
    vectors = span.primitive_vectors()
    return {
        "q": args.q,
        "n": args.n,
        "dim": len(vectors),
        "representatives": [
            span.to_dual(v).to_json()["terms"] for v in vectors
        ],
    }


def cmd_annihilated(args):
    element = _load_dual(args)
    return {
        "q": element.q,
        "degree": element.degree,
        "terms": len(element.terms),
        "annihilated": is_annihilated(element),
    }


def cmd_kameko(args):
    if (args.n - args.q) % 2 or args.n < args.q:
        raise UsageError(
            f"halving map needs n = 2m + q; n={args.n}, q={args.q} do not fit"
        )
    km = cohit.kameko_matrix(args.q, args.n)
    kernel = km.kernel_coordinates()
    return {
        "q": args.q,
        "n": args.n,
        "target_degree": km.target_degree,
        "domain_dim": km.domain.dim,
        "codomain_dim": km.codomain.dim,
        "rank": km.rank(),
        "surjective": km.is_surjective(),
        "kernel_dim": len(kernel),
    }


def cmd_psi(args):
    element = _load_dual(args)
    if element.is_zero():
        raise UsageError("the zero element has no chain image worth printing")
    image = psi(element)
    return {
        "q": element.q,
        "degree": element.degree,
        "words": [list(w) for w in image.sorted_words()],
        "is_cycle": image.is_zero() or is_cycle(image),
    }


def cmd_ext(args):
    return {"s": args.q, "n": args.n, "dim": ext_dim(args.q, args.n)}


def cmd_transfer(args):
    return transferlab.verdict(args.q, args.n).to_json()


def cmd_verify(args):
    names = args.suites or ["all"]
    if names == ["all"]:
        names = list(transferlab.SUITE_NAMES)
    for name in names:
        if name not in transferlab.SUITE_NAMES:
            raise UsageError(
                f"unknown suite {name!r}; choose from "
                f"{', '.join(transferlab.SUITE_NAMES)} or 'all'"
            )
    reports = transferlab.verify_all(tuple(names), jobs=args.jobs)
    return {
        "suites": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
        "complete": all(r.complete for r in reports),
    }


def cmd_spike(args):
    _require(args, "q", "n")
    m = minimal_spike(args.q, args.n)
    return {
        "q": args.q,
        "n": args.n,
        "mu": mu(args.n) if args.n > 0 else 0,
        "spike": list(m) if m is not None else None,
        "weight": list(weight_vector(m)) if m is not None else None,
    }


def cmd_mu(args):
    _require(args, "n")
    return {"n": args.n, "alpha": alpha(args.n), "mu": mu(args.n)}


HANDLERS = {
    "cohit": cmd_cohit,
    "weight": cmd_weight,
    "invariants": cmd_invariants,
    "coinvariants": cmd_coinvariants,
    "primitives": cmd_primitives,
    "annihilated": cmd_annihilated,
    "kameko": cmd_kameko,
    "psi": cmd_psi,
    "ext": cmd_ext,
    "transfer": cmd_transfer,
    "verify": cmd_verify,
    "spike": cmd_spike,
    "mu": cmd_mu,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def emit(payload: dict, out: str) -> None:
    if out == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    if "suites" in payload:
        for suite in payload["suites"]:
            print(f"suite {suite['name']}: "
                  f"{'pass' if suite['passed'] else 'FAIL'}"
                  f"{'' if suite['complete'] else ' (partial)'}")
            for check in suite["checks"]:
                line = f"  [{check['status']}] {check['name']}"
                if check["detail"]:
                    line += f" -- {check['detail']}"
                print(line)
        print(f"passed: {payload['passed']}")
        print(f"complete: {payload['complete']}")
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}:")
            for row in value:
                print("  " + " ".join(str(x) for x in row))
        elif isinstance(value, dict):
            print(f"{key}:")
            for k in sorted(value):
                print(f"  {k}: {value[k]}")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for item in value:
                print("  " + json.dumps(item, sort_keys=True))
        else:
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, help="number of variables (or word length)")
    common.add_argument("--n", type=int, help="internal degree")
    common.add_argument(
        "--omega", help="weight vector as comma-separated counts, e.g. 3,1,1"
    )
    common.add_argument(
        "--group",
        choices=("sigma", "gl"),
        default="gl",
        help="permutations only, or the full linear group",
    )
    common.add_argument("--file", help="JSON file holding one element")
    common.add_argument(
        "--out", choices=("json", "table"), default="json", help="output format"
    )
    common.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    common.add_argument(
        "--jobs", type=int, default=1, help="parallel workers, one per suite at most"
    )

    parser = argparse.ArgumentParser(
        prog="cohitlab",
        description=(
            "Hit-problem quotients, linear-group fixed points, admissible-word "
            "homology, and rank-q transfer verdicts over GF(2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "cohit": "basis and dimension of the degree-n quotient",
        "weight": "weight table, or one weight subquotient with --omega",
        "invariants": "fixed classes of the quotient under the chosen group",
        "coinvariants": "dual classes modulo the group action",
        "primitives": "duals killed by every positive square",
        "annihilated": "test one dual element from --file",
        "kameko": "halving map Q_n -> Q_{(n-q)/2}: rank and kernel",
        "psi": "chain image of a dual element from --file, reduced",
        "ext": "homology dimension at word length --q, degree --n",
        "transfer": "transfer verdict at (--q, --n)",
        "verify": "run named verification suites",
        "spike": "minimal spike of degree n in q variables",
        "mu": "alpha and mu of a degree",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, parents=[common], help=desc, description=desc)
        if name == "verify":
            p.add_argument(
                "suites",
                nargs="*",
                metavar="SUITE",
                help=f"one of {', '.join(transferlab.SUITE_NAMES)}, or 'all'",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cache_dir = (
        None if args.no_cache else Path(os.environ.get("COHITLAB_CACHE", ".cohitlab"))
    )
    handler = HANDLERS[args.command]
    try:
        _check_ranges(args)
        if args.command in CACHED:
            payload = _serve_cached(handler, args, cache_dir)
        else:
            payload = handler(args)
    except UsageError as exc:
        print(f"cohitlab {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        emit({"error": "resource-limit", "detail": str(exc)}, args.out)
        return EXIT_RESOURCES
    except RewriteBudget as exc:
        emit({"error": "rewrite-budget", "detail": str(exc)}, args.out)
        return EXIT_RESOURCES
    emit(payload, args.out)
    if args.command == "verify" and not payload["passed"]:
        return EXIT_MISMATCH
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
