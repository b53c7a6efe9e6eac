"""Command-line front end: JSON reports, a persistent result cache, and
named verification suites.

Every command prints one JSON object (or a plain-text table with
``--out table``) and exits 0 on success, 1 when a verification suite
mismatches its stored expectations, 2 on usage or input errors, and 3 when a
computation refuses to start or finish inside the column budget
(``cohit.MAX_COLUMNS``) or the Adem rewrite budget
(``lambda_algebra.MAX_REWRITES``).

Everything the front end knows about a command is its row of
``COMMANDS``.  The answers of the commands whose row has a key are the only
thing cohitlab keeps on disk: one entry per answer under
``$COHITLAB_CACHE`` (default ``.cohitlab/``, read on every call;
``--no-cache`` bypasses it).  ``main`` fetches, computes and stores them on
one path.  An entry is two lines: a key line, the sorted JSON of the row's
key options, the command, :func:`engine_digest` (a hash of the package's
source) and the SHA-256 of the answer line; then the answer line, exactly
what ``--out json`` prints, without its newline.  A warm call parses the key
line only and prints the answer line as stored.  It is served only when the
key line equals the query's and the answer line hashes to its digest; so any
edit to the engine, or to the entry format this module defines, recomputes
every answer instead of serving one stored before it, and so does an answer
line that was truncated or edited by hand.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

from . import cohit, glaction, transferlab
from .cohit import ResourceLimit
from .lambda_algebra import ext_dim, is_cycle, psi
from .polyspace import (
    DualElement,
    alpha,
    check_rank,
    minimal_spike,
    mu,
    trim_weight,
    weight_vector,
)
from .steenrod import is_annihilated

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCES = 3


@functools.cache
def engine_digest() -> str:
    """SHA-256 of the package's ``*.py`` files: the version in every cache key.

    Read once per process, at the first cache access, so ``--no-cache``
    never reads it.
    """
    sha = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        sha.update(path.name.encode() + hashlib.sha256(path.read_bytes()).digest())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# result cache (entry = key line + answer line)
# ---------------------------------------------------------------------------


def _entry_path(cache_dir: Path, op: str, key: dict) -> Path:
    # no engine digest here: an entry of another engine is overwritten in place
    blob = json.dumps({"op": op, **key}, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return cache_dir / f"cli_{op}_{digest}.json"


def cache_fetch(cache_dir: Path | None, op: str, key: dict) -> str | None:
    """Stored answer line for (op, key), or None when absent, not shaped as
    :func:`cache_put` writes it, stored for another query or engine, or not
    the answer its key line hashes.  Only the key line is parsed."""
    if cache_dir is None:
        return None
    try:
        with open(_entry_path(cache_dir, op, key), "rb") as fh:
            head, newline, answer = fh.read().partition(b"\n")
        stored = json.loads(head) if newline else None
    except (OSError, ValueError):
        return None
    if not isinstance(stored, dict):
        return None
    if stored.pop("answer", None) != hashlib.sha256(answer).hexdigest():
        return None  # an empty, truncated or edited answer line
    if stored != {**key, "op": op, "engine": engine_digest()}:
        return None
    return answer.decode()


def cache_put(cache_dir: Path | None, op: str, key: dict, text: str) -> None:
    """Store the answer line ``text`` under its key line, atomically."""
    if cache_dir is None:
        return
    answer = text.encode()
    head = {**key, "op": op, "engine": engine_digest(),
            "answer": hashlib.sha256(answer).hexdigest()}
    path = _entry_path(cache_dir, op, key)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True).encode() + b"\n" + answer)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)


def _serve_cached(command: Command, args, cache_dir: Path | None) -> str:
    """Answer a command with a key: its stored answer line, or compute and
    store it.

    Every key holds q and n.  The parsed ``--omega``, without trailing
    zeros, is written back to ``args.omega`` for the key and the handler.
    """
    _require(args, "q", "n")
    args.omega = None if args.omega is None else _parse_omega(args.omega)
    key = {name: getattr(args, name) for name in command.key}
    text = cache_fetch(cache_dir, args.command, key)
    if text is None:
        text = _dump(command.handler(args))
        cache_put(cache_dir, args.command, key, text)
    return text


# ---------------------------------------------------------------------------
# command handlers: return the JSON payload
# ---------------------------------------------------------------------------


def _parse_omega(text: str) -> list[int]:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"bad weight vector {text!r}; expected e.g. 3,1,1")
    if any(x < 0 for x in parts):
        raise UsageError(f"bad weight vector {text!r}; entries must be >= 0")
    return list(trim_weight(parts))


class UsageError(ValueError):
    pass


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name} is required for this command")


def _check_ranges(command: Command, args) -> None:
    """Reject a --jobs below 1, a negative --n, a polynomial --q out of range,
    and a negative --q that keys an answer as a word length (for ext)."""
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.n is not None and args.n < 0:
        raise UsageError(f"--n must be nonnegative, got {args.n}")
    if args.q is None:
        return
    if command.polynomial:
        try:
            check_rank(args.q)
        except ValueError as exc:
            raise UsageError(f"--q: {exc}")
    elif "q" in command.key and args.q < 0:
        raise UsageError(f"--q (the word length) must be nonnegative, got {args.q}")


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
    if args.omega is not None:
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
    vectors = span.primitive_vectors()[::-1]  # listed most senior first
    return {
        "q": args.q,
        "n": args.n,
        "dim": len(vectors),
        "representatives": list(map(span.dual_terms, vectors)),
    }


def cmd_annihilated(args):
    element = _load_dual(args)
    cohit.check_columns(element.q, element.degree or 0)  # before any square
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
    return {
        "q": args.q,
        "n": args.n,
        "target_degree": km.target_degree,
        "domain_dim": km.domain.dim,
        "codomain_dim": km.codomain.dim,
        "rank": km.rank(),
        "surjective": km.is_surjective(),
        "kernel_dim": len(km.kernel),
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


class Command(NamedTuple):
    """A command: its handler, the parsed options that key its stored
    answer (none: never stored), its help, and whether its --q counts
    variables (for ext it is a word length)."""

    handler: Callable[[argparse.Namespace], dict]
    key: tuple[str, ...]
    help: str
    polynomial: bool = True


COMMANDS = {
    "cohit": Command(cmd_cohit, ("q", "n"),
                     "basis and dimension of the degree-n quotient"),
    "weight": Command(cmd_weight, ("q", "n", "omega"),
                      "weight table, or one weight subquotient with --omega"),
    "invariants": Command(cmd_invariants, ("q", "n", "omega", "group"),
                          "fixed classes of the quotient under the chosen group"),
    "coinvariants": Command(cmd_coinvariants, ("q", "n", "group"),
                            "dual classes modulo the group action"),
    "primitives": Command(cmd_primitives, ("q", "n"),
                          "duals killed by every positive square"),
    "annihilated": Command(cmd_annihilated, (), "test one dual element from --file"),
    "kameko": Command(cmd_kameko, ("q", "n"),
                      "halving map Q_n -> Q_{(n-q)/2}: rank and kernel"),
    "psi": Command(cmd_psi, (), "chain image of a dual element from --file, reduced"),
    "ext": Command(cmd_ext, ("q", "n"),
                   "homology dimension at word length --q, degree --n", False),
    "transfer": Command(cmd_transfer, ("q", "n"), "transfer verdict at (--q, --n)"),
    "verify": Command(cmd_verify, (), "run the named suites (default all)", False),
    "spike": Command(cmd_spike, (), "minimal spike of degree n in q variables"),
    "mu": Command(cmd_mu, (), "alpha and mu of a degree", False),
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _dump(payload: dict) -> str:
    """The answer line: what ``--out json`` prints and a cache entry stores."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def emit(text: str, out: str) -> None:
    """Print an answer line as it is, or the table of the payload it encodes."""
    if out == "json":
        print(text)
        return
    payload = json.loads(text)
    if "suites" in payload:
        for suite in payload["suites"]:
            print(f"suite {suite['name']}: {'pass' if suite['passed'] else 'FAIL'}")
            for check in suite["checks"]:
                line = f"  [{check['status']}] {check['name']}"
                if check["detail"]:
                    line += f" -- {check['detail']}"
                print(line)
        print(f"passed: {payload['passed']}")
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
        else:
            print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command is its first positional,
    and ``verify``'s suites are the tokens it leaves over."""
    commands = "".join(f"  {name:<13} {c.help}\n" for name, c in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="cohitlab",
        usage="%(prog)s COMMAND [options] (verify: [SUITE ...])",
        description=(
            "Hit-problem quotients, linear-group fixed points, admissible-word\n"
            "homology, and rank-q transfer verdicts over GF(2)."
        ),
        epilog=(
            f"commands:\n{commands}\nsuites: "
            f"{', '.join(transferlab.SUITE_NAMES)}, or all"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="one of the commands below")
    parser.add_argument("--q", type=int, help="number of variables (or word length)")
    parser.add_argument("--n", type=int, help="internal degree")
    parser.add_argument("--omega",
                        help="weight vector as comma-separated counts, e.g. 3,1,1")
    parser.add_argument("--group", choices=("sigma", "gl"), default="gl",
                        help="permutations only, or the full linear group")
    parser.add_argument("--file", help="JSON file holding one element")
    parser.add_argument("--out", choices=("json", "table"), default="json",
                        help="output format")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers, one per suite at most")
    return parser


def main(argv: list[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    args.suites = extra  # verify's suites; any other command takes none
    cache_dir = (
        None if args.no_cache else Path(os.environ.get("COHITLAB_CACHE", ".cohitlab"))
    )
    command = COMMANDS[args.command]
    try:
        if extra and args.command != "verify":
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        _check_ranges(command, args)
        payload = {}
        if command.key:
            text = _serve_cached(command, args, cache_dir)
        else:
            payload = command.handler(args)
            text = _dump(payload)
    except UsageError as exc:
        print(f"cohitlab {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        emit(_dump({"error": exc.error, "detail": str(exc)}), args.out)
        return EXIT_RESOURCES
    emit(text, args.out)
    # only a verification report has "passed", and no report is stored
    return EXIT_MISMATCH if payload.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
