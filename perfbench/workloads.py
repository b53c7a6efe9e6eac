"""Query lists of the benchmark workloads, with the oracle for every answer.

A query is either a CLI invocation (``argv`` for ``cohitlab.cli.main``) or an
API call (``call``).  Its ``check`` receives the parsed JSON payload (CLI) or
the return value (API) and returns ``None`` when the answer agrees with the
frozen ``refdata`` table that covers it, else a one-line description of the
mismatch.  CLI answers are also compared byte for byte, through a SHA-256
digest, against ``digests.json``.

This module imports ``cohitlab`` when a list is built, so building a list is
part of a worker's set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Query:
    qid: str  # stable name; keys the stdout digest
    argv: tuple[str, ...] = ()
    call: Callable[[], object] | None = None
    check: Callable[[object], str | None] = lambda _: None


def _expect(**want) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        for key, value in want.items():
            if payload.get(key) != value:
                return f"{key} = {payload.get(key)!r}, expected {value!r}"
        return None

    return check


def _equals(want) -> Callable[[object], str | None]:
    return lambda got: None if got == want else f"{got!r}, expected {want!r}"


def _both(*checks) -> Callable[[object], str | None]:
    def check(value) -> str | None:
        for c in checks:
            problem = c(value)
            if problem:
                return problem
        return None

    return check


def _nonzero_weights(want: dict) -> Callable[[dict], str | None]:
    """The weight table's nonzero entries are exactly the frozen ones."""
    table = {",".join(map(str, w)): d for w, d in want.items()}

    def check(payload: dict) -> str | None:
        got = {w: d for w, d in payload["weights"].items() if d}
        return None if got == table else f"nonzero weights {got}, expected {table}"

    return check


def _cli(command: str, *args: str, check=lambda _: None) -> Query:
    qid = " ".join((command,) + args)
    argv = [command]
    for flag, value in zip(("--q", "--n"), args):
        argv += [flag, value]
    return Query(qid, tuple(argv), check=check)


def _dual_cli(command: str, name: str, path: Path, check) -> Query:
    return Query(f"{command} {name}", (command, "--file", str(path)), check=check)


# CLI commands whose answers ``cohitlab.cli`` stores in the result cache; a
# warm pass runs only these, since any other query computes afresh in a new
# process whatever the cache holds
CACHED_COMMANDS = frozenset(
    ("cohit", "weight", "invariants", "coinvariants", "kameko", "ext", "transfer")
)


def served_by_cache(query: Query) -> bool:
    return bool(query.argv) and query.argv[0] in CACHED_COMMANDS


# -- hit: hit-span elimination at large routine degrees ------------------------

# (4, 45) is built in the transfer set-up and timed in the baseline workload
HIT_DEGREES = (37, 46)


def hit_queries(workdir: Path) -> list[Query]:
    from cohitlab import refdata

    dims = {**refdata.COHIT_DIMS, **refdata.COHIT_DIMS_REGRESSION}
    out = []
    for n in HIT_DEGREES:
        dim = dims[(4, n)]
        out.append(_cli("cohit", "4", str(n), check=_expect(dim=dim)))
        weights = refdata.WEIGHT_DIMS.get((4, n))
        check = _expect(total=dim)
        if weights is not None:
            check = _both(check, _nonzero_weights(weights))
        out.append(_cli("weight", "4", str(n), check=check))
    return out


# -- lambda: Ext by kernel extraction, psi, and the d^2 = 0 sweep -------------

# Ext at (4, 45) and (4, 46) costs 30-40 s each, more than a routine run can
# hold; those two run in the ``baseline`` workload.
SLOW_EXT = {(4, 45), (4, 46)}
D2_MAX_LENGTH = 4
D2_MAX_DEGREE = 34


def _dual_generators():
    from cohitlab import refdata

    return {
        "4,9": (4, refdata.DUAL_GENERATOR_9),
        "4,17": (4, refdata.DUAL_GENERATOR_17),
        "4,22": (4, refdata.DUAL_GENERATOR_22),
        "4,45": (4, refdata.DUAL_GENERATOR_45),
        "3,19": (3, refdata.DUAL_GENERATOR_19_RANK3),
    }


def write_dual_files(workdir: Path) -> dict[str, Path]:
    """One JSON file per dual generator, in the format ``--file`` reads."""
    paths = {}
    for name, (q, terms) in _dual_generators().items():
        path = workdir / f"dual_{name.replace(',', '_')}.json"
        path.write_text(json.dumps({"q": q, "terms": [list(t) for t in terms]}))
        paths[name] = path
    return paths


def _psi_check(name: str):
    from cohitlab import refdata

    q, n = (int(x) for x in name.split(","))
    want = refdata.PSI_IMAGES.get((q, n))
    if want is None:  # degree 17: the image is a cycle, not a frozen word list
        return _expect(is_cycle=True)
    return _expect(words=[list(w) for w in want[1]], is_cycle=True)


def _d2_call(s: int, n: int) -> Callable[[], object]:
    def call():
        from cohitlab.lambda_algebra import LambdaElement, admissible_basis, differential

        bad = [
            w
            for w in admissible_basis(s, n)
            if not differential(differential(LambdaElement([w]))).is_zero()
        ]
        return bad

    return call


def _no_words(bad) -> str | None:
    return f"d(d(w)) != 0 for {bad[:3]}" if bad else None


def lambda_queries(workdir: Path) -> list[Query]:
    from cohitlab import refdata

    out = [
        _cli("ext", str(s), str(n), check=_expect(s=s, n=n, dim=dim))
        for (s, n), dim in sorted(refdata.EXT_DIMS.items())
        if (s, n) not in SLOW_EXT
    ]
    for name, path in write_dual_files(workdir).items():
        out.append(_dual_cli("psi", name, path, _psi_check(name)))
        out.append(_dual_cli("annihilated", name, path, _expect(annihilated=True)))
    for s in range(1, D2_MAX_LENGTH + 1):
        for n in range(D2_MAX_DEGREE + 1):
            out.append(Query(f"d2 {s} {n}", call=_d2_call(s, n), check=_no_words))
    return out


# -- transfer: GL action, coinvariants and transfer verdicts on built spans ---

# Degree 46 and the transfer at (4, 37) are left out: their span and Ext
# would add 20 s to every set-up.
TRANSFER_SPANS = (
    (4, 3), (4, 9), (4, 10), (4, 17), (4, 21), (4, 22), (4, 37), (4, 45), (3, 19)
)
TRANSFER_BIDEGREES = ((4, 9), (4, 17), (4, 21), (4, 22), (3, 19))
GL_DEGREES = (37, 45)
KAMEKO_DEGREES = (10, 22)


def transfer_setup() -> None:
    """Build the hit spans and Ext data the transfer queries stand on."""
    from cohitlab.cohit import span_for
    from cohitlab.lambda_algebra import ext_dim

    for q, n in TRANSFER_SPANS:
        span_for(q, n)
    for s, n in TRANSFER_BIDEGREES:
        ext_dim(s, n)


def _kameko_invariants_call(n: int) -> Callable[[], object]:
    def call():
        from cohitlab.glaction import kameko_kernel_invariants

        return kameko_kernel_invariants(4, n).dim

    return call


def _consistent_kameko(payload: dict) -> str | None:
    if payload["kernel_dim"] != payload["domain_dim"] - payload["rank"]:
        return f"kernel_dim {payload['kernel_dim']} != domain_dim - rank"
    return None


def transfer_queries(workdir: Path) -> list[Query]:
    from cohitlab import refdata

    out = []
    for n in GL_DEGREES:
        out.append(_cli("invariants", "4", str(n),
                        check=_expect(dim=refdata.GL_INVARIANT_DIMS[(4, n)])))
        out.append(_cli("coinvariants", "4", str(n),
                        check=_expect(dim=refdata.COINVARIANT_DIMS[(4, n)])))
    for n in KAMEKO_DEGREES:
        out.append(_cli("kameko", "4", str(n), check=_consistent_kameko))
        out.append(Query(f"kameko-invariants 4 {n}", call=_kameko_invariants_call(n),
                         check=_equals(refdata.KAMEKO_KERNEL_INVARIANT_DIMS[(4, n)])))
    for q, n in TRANSFER_BIDEGREES:
        domain, codomain, iso = refdata.TRANSFER_VERDICTS[(q, n)]
        out.append(
            _cli("transfer", str(q), str(n),
                 check=_expect(domain_dim=domain, codomain_dim=codomain,
                               isomorphism=iso))
        )
    return out


# -- baseline: the ROADMAP baseline rows (minutes; not a routine workload) ----


def baseline_queries(workdir: Path) -> list[Query]:
    from cohitlab import refdata

    dims = {**refdata.COHIT_DIMS, **refdata.COHIT_DIMS_REGRESSION}
    out = [_cli("cohit", "4", str(n), check=_expect(dim=dims[(4, n)]))
           for n in (45, 46)]
    out += [_cli("ext", "4", str(n), check=_expect(dim=refdata.EXT_DIMS[(4, n)]))
            for n in (45, 46)]
    return out


WORKLOADS = {
    "hit": hit_queries,
    "lambda": lambda_queries,
    "transfer": transfer_queries,
    "baseline": baseline_queries,
}

# work done before the first timed query of a cold pass
SETUP = {"transfer": transfer_setup}
