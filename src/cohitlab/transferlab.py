"""Rank-q transfer analysis: coinvariant classes into admissible-word homology.

For each basis class [theta] of the divided-power coinvariants the chain
image psi_q(theta) is a cycle; its coordinates over the homology basis at
(length q, internal degree n) form one row of the transfer matrix.  A
verdict compares the coinvariant dimension with the homology dimension and
reports the rank of the matrix, i.e. whether the induced map is injective,
surjective, or both in that bidegree.

``verify_suite`` bundles named check suites over the structured degree
families; each check re-derives a frozen expectation from
:mod:`cohitlab.refdata` and reports pass/fail with a diff, so a conventions
drift anywhere in the engine surfaces as a named failure here.
"""

from __future__ import annotations

from typing import NamedTuple

from . import cohit, glaction, refdata
from .f2linalg import echelonize
from .glaction import CoinvariantData, coinvariants
from .lambda_algebra import (
    LambdaElement,
    classes_equal,
    differential,
    ext_dim,
    homology_coordinates,
    is_cycle,
    psi,
)
from .polyspace import DualElement, Polynomial, pairing
from .steenrod import is_annihilated


class TransferReport(NamedTuple):
    """Verdict for one bidegree: domain/codomain dims, matrix, and flags."""

    q: int
    n: int
    domain_dim: int
    codomain_dim: int
    rank: int
    matrix: list[int]  # row r: the homology coordinate bit-vector of psi(rep_r)
    coinvariants: CoinvariantData  # the domain, whose printer to_json reads

    @property
    def injective(self) -> bool:
        return self.rank == self.domain_dim

    @property
    def surjective(self) -> bool:
        return self.rank == self.codomain_dim

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.surjective

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "domain_dim": self.domain_dim,
            "codomain_dim": self.codomain_dim,
            "rank": self.rank,
            "injective": self.injective,
            "surjective": self.surjective,
            "isomorphism": self.isomorphism,
            # each row as its codomain_dim bits, bit 0 first
            "matrix": [[row >> k & 1 for k in range(self.codomain_dim)]
                       for row in self.matrix],
            "representatives": self.coinvariants.to_json()["representatives"],
        }


def verdict(q: int, n: int) -> TransferReport:
    """Transfer verdict at one bidegree.

    Row r of the matrix is the homology coordinate bit-vector of psi of
    coinvariant representative r.  ``homology_coordinates`` raises ValueError
    if a representative's chain image is not a cycle: dual classes killed by
    all positive squares always map to cycles, so a non-cycle is an engine
    bug, not a property of the input.  The representatives are span kernel
    vectors, so primitive, and psi reads only their first exponents 2^i - 1.
    """
    data = coinvariants(q, n, "gl")
    rows = [homology_coordinates(psi(rep, primitive=True), q, n)
            for rep in data.representatives()]
    return TransferReport(q, n, data.dim, ext_dim(q, n), echelonize(rows).rank,
                          rows, data)


# ---------------------------------------------------------------------------
# named verification suites
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    suite: str
    name: str
    status: str  # "pass" | "fail"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class SuiteReport(NamedTuple):
    name: str
    checks: list[CheckResult]  # no default: a [] default would be shared by all

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str, got, want) -> None:
        """Record one named equality check, with both values when it fails."""
        if got == want:
            self.checks.append(CheckResult(self.name, name, "pass"))
        else:
            self.checks.append(
                CheckResult(self.name, name, "fail", f"got {got!r}, want {want!r}")
            )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
        }


def _verdict_tuple(q: int, n: int) -> tuple[int, int, bool]:
    rep = verdict(q, n)
    return (rep.domain_dim, rep.codomain_dim, rep.isomorphism)


# the (q, n) bidegrees each suite checks against the tables below; every
# bidegree belongs to one suite, so each frozen value is checked once
SUITE_DEGREES = {
    "dlc1": ((4, 9), (4, 21), (4, 45)),
    "dlc2": ((4, 17), (4, 37)),
    "dlct": ((4, 65),),
    "dlc3": ((4, 4), (4, 10), (4, 22), (4, 46), (3, 19)),
    "dlct2": ((4, 64),),
    "exttables": ((4, 61),),
}

# check kind -> (refdata tables holding its frozen values, computation)
_TABLE_CHECKS = {
    "cohit dim": (("COHIT_DIMS", "COHIT_DIMS_REGRESSION"), cohit.cohit_dim),
    "coinvariant dim": (
        ("COINVARIANT_DIMS", "COINVARIANT_DIMS_STRETCH"),
        lambda q, n: coinvariants(q, n, "gl").dim,
    ),
    "kernel invariants": (
        ("KAMEKO_KERNEL_INVARIANT_DIMS",),
        lambda q, n: glaction.kameko_kernel_invariants(q, n, "gl").dim,
    ),
    "transfer verdict": (
        ("TRANSFER_VERDICTS", "TRANSFER_VERDICTS_STRETCH"),
        _verdict_tuple,
    ),
}


def _table_checks(s: SuiteReport, kind: str, q: int = 4) -> None:
    """One ``kind`` check per rank-q bidegree of the suite its tables hold."""
    tables, compute = _TABLE_CHECKS[kind]
    want = {}
    for table in tables:
        want.update(getattr(refdata, table))
    prefix = "" if q == 4 else f"rank-{q} "
    for bideg in SUITE_DEGREES[s.name]:
        if bideg[0] == q and bideg in want:
            s.check(f"{prefix}{kind} n={bideg[1]}", compute(*bideg), want[bideg])


def _suite_family_a(s: SuiteReport) -> None:
    """Degrees 6*2^s - 3: dims, generators, and verdicts at s = 1, 2, 3."""
    _table_checks(s, "cohit dim")
    s.check("basis n=9",
            sorted(cohit.cohit_basis(4, 9)), sorted(refdata.COHIT_BASIS_4_9))
    _table_checks(s, "coinvariant dim")
    s.check("invariant generator n=9",
            _generates_fixed_points(4, 9, refdata.GL_INVARIANT_GENERATOR_9), True)
    s.check("weight-fixed generator n=45",
            _generates_fixed_points(4, 45, refdata.GL_INVARIANT_GENERATOR_45_WEIGHT,
                                    (3, 3, 3, 3)),
            True)
    s.check("pairing n=9",
            pairing(DualElement(4, refdata.DUAL_GENERATOR_9),
                    Polynomial(4, refdata.GL_INVARIANT_GENERATOR_9)), 1)
    _check_dual_generator_class(s, 9, refdata.DUAL_GENERATOR_9)
    s.check("spike class vanishes n=21",
            coinvariants(4, 21, "gl").class_coordinates(
                DualElement(4, refdata.DUAL_SPIKE_21)), 0)
    _check_dual_generator_class(s, 45, refdata.DUAL_GENERATOR_45)
    _table_checks(s, "transfer verdict")
    # chain image of the single-term dual: nonzero class at s = 3, boundary
    # at s = 2
    s.check("image class n=45",
            homology_coordinates(psi(DualElement(4, [(0, 15, 15, 15)])), 4, 45),
            1)
    s.check("image bounds n=21",
            classes_equal(psi(DualElement(4, [(0, 7, 7, 7)])), LambdaElement()),
            True)


def _suite_family_b(s: SuiteReport) -> None:
    """Degrees 10*2^s - 3: dims, the 44-term generator, verdicts at s = 1, 2."""
    _table_checks(s, "cohit dim")
    s.check("basis n=17",
            sorted(cohit.cohit_basis(4, 17)), sorted(refdata.COHIT_BASIS_4_17))
    _table_checks(s, "coinvariant dim")
    s.check("44-term dual annihilated",
            _annihilated(4, refdata.DUAL_GENERATOR_17), True)
    _check_dual_generator_class(s, 17, refdata.DUAL_GENERATOR_17)
    s.check("invariant generator n=17",
            _generates_fixed_points(4, 17, refdata.GL_INVARIANT_GENERATOR_17), True)
    _table_checks(s, "transfer verdict")


def _suite_family_c(s: SuiteReport) -> None:
    """Degrees 3*2^s - 2: halving-kernel invariants and the degree-22 class."""
    _table_checks(s, "cohit dim")
    _table_checks(s, "kernel invariants")
    s.check("kernel basis n=4",
            _kameko_kernel_matches(4, 4, refdata.KAMEKO_KERNEL_BASIS_4_4), True)
    _table_checks(s, "coinvariant dim")
    s.check("dual generator annihilated n=22",
            _annihilated(4, refdata.DUAL_GENERATOR_22), True)
    s.check("image words n=22",
            psi(DualElement(4, refdata.PSI_IMAGES[(4, 22)][0])).terms,
            frozenset(refdata.PSI_IMAGES[(4, 22)][1]))
    _table_checks(s, "transfer verdict")
    # the rank-3 shadow in degree 19
    s.check("rank-3 dual annihilated n=19",
            _annihilated(3, refdata.DUAL_GENERATOR_19_RANK3), True)
    _table_checks(s, "coinvariant dim", q=3)
    _table_checks(s, "transfer verdict", q=3)


def _suite_family_d(s: SuiteReport) -> None:
    """Degrees 3(2^s-1) + 2^s(2^{t+1}-1), t >= 4; smallest case n = 65."""
    _table_checks(s, "cohit dim")
    _table_checks(s, "coinvariant dim")
    _check_dual_generator_class(s, 65, refdata.DUAL_GENERATOR_65)
    _table_checks(s, "transfer verdict")


def _suite_family_e(s: SuiteReport) -> None:
    """Degrees 2(2^s-1) + 2^s(2^t-1), t >= 5; smallest case n = 64."""
    _table_checks(s, "cohit dim")
    s.check("dual generator annihilated n=64",
            _annihilated(4, refdata.DUAL_GENERATOR_64), True)
    _table_checks(s, "coinvariant dim")
    _check_dual_generator_class(s, 64, refdata.DUAL_GENERATOR_64)
    _table_checks(s, "transfer verdict")


def _suite_peel_identities(s: SuiteReport) -> None:
    """The four printed degree-9 chain images and the induced nonzero class."""
    for term, raw in refdata.PSI_RAW_TERM_IMAGES_9.items():
        s.check(f"image of {term}",
                psi(DualElement(4, [term])), LambdaElement(raw))
    s.check("reduced image of the degree-9 generator",
            psi(DualElement(4, refdata.PSI_IMAGES[(4, 9)][0])).terms,
            frozenset(refdata.PSI_IMAGES[(4, 9)][1]))
    s.check("class is nonzero",
            homology_coordinates(
                psi(DualElement(4, refdata.DUAL_GENERATOR_9)), 4, 9), 1)


def _suite_boundary_identity(s: SuiteReport) -> None:
    """The degree-17 image equals the five-term cycle plus an explicit boundary."""
    zeta = DualElement(4, refdata.DUAL_GENERATOR_17)
    e0 = LambdaElement(refdata.PSI_IMAGE_17_CYCLE)
    pre = LambdaElement(refdata.PSI_IMAGE_17_PREIMAGE)
    s.check("five-term element is a cycle", is_cycle(e0), True)
    s.check("image equals cycle plus boundary, exactly",
            psi(zeta), e0 ^ differential(pre))
    s.check("classes agree", classes_equal(psi(zeta), e0), True)
    s.check("class is nonzero", homology_coordinates(e0, 4, 17) != 0, True)
    s.check("homology dim", ext_dim(4, 17), 1)


def _suite_ext_tables(s: SuiteReport) -> None:
    """Homology dimension censuses, then the degree-61 non-isomorphism."""
    ext = {**refdata.EXT_DIMS, **refdata.EXT_DIMS_STRETCH}
    for (length, deg), dim in sorted(ext.items()):
        s.check(f"ext({length},{deg})", ext_dim(length, deg), dim)
    _table_checks(s, "cohit dim")
    _table_checks(s, "coinvariant dim")
    _table_checks(s, "transfer verdict")


_SUITE_RUNNERS = {
    "dlc1": _suite_family_a,
    "dlc2": _suite_family_b,
    "dlct": _suite_family_d,
    "dlc3": _suite_family_c,
    "dlct2": _suite_family_e,
    "remark26": _suite_peel_identities,
    "eq6": _suite_boundary_identity,
    "exttables": _suite_ext_tables,
}
SUITE_NAMES = tuple(_SUITE_RUNNERS)


def verify_suite(name: str) -> SuiteReport:
    """Run one named suite; unknown names raise ValueError.

    A budget refusal, a ``cohit.ResourceLimit`` whichever budget raised it,
    propagates: every check runs to a verdict, or the suite reports nothing.
    """
    if name not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    report = SuiteReport(name, [])
    _SUITE_RUNNERS[name](report)
    return report


def verify_all(
    names: tuple[str, ...] = SUITE_NAMES, jobs: int = 1
) -> list[SuiteReport]:
    """Run several suites, optionally fanning out over processes.

    Reports come back in the order of ``names`` regardless of job count.  A
    pool starts all its workers at once, so it gets one per suite at most,
    and one worker or none runs here with no pool; a budget refusal in a
    worker is raised again here.
    """
    workers = min(jobs, len(names))
    if workers <= 1:
        return [verify_suite(n) for n in names]
    import concurrent.futures  # only a pool needs it, with logging and threading

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {n: pool.submit(verify_suite, n) for n in names}
        return [futures[n].result() for n in names]


# ---------------------------------------------------------------------------
# small helpers used by the suites
# ---------------------------------------------------------------------------


def _annihilated(q: int, terms) -> bool:
    return is_annihilated(DualElement(q, terms))


def _check_dual_generator_class(s: SuiteReport, n: int, terms) -> None:
    """The rank-4 dual generator of degree n has a nonzero GL coinvariant class."""
    dual = DualElement(4, terms)
    s.check(f"dual generator class n={n}",
            coinvariants(4, n, "gl").class_coordinates(dual) != 0, True)


def _generates_fixed_points(q, n, monomials, omega=None) -> bool:
    """The class of the given sum spans the GL-fixed points of Q_n, or of its
    weight-omega subquotient; fixed points of any other dimension fail."""
    report = glaction.invariants(q, n, "gl", omega=omega)
    if report.dim != 1:
        return False
    # the class's coordinates, read on the basis block the fixed points use
    span = cohit.span_for(q, n)
    block = range(span.dim) if omega is None else span.weight_block(omega)
    coords = span.coordinates(Polynomial(q, monomials)) >> block.start
    return coords & ((1 << len(block)) - 1) == report.vectors[0]


def _kameko_kernel_matches(q, n, monomials) -> bool:
    """The frozen class list spans the halving-map kernel."""
    km = cohit.kameko_matrix(q, n)
    ech = echelonize(km.kernel)
    frozen = [km.domain.coordinates(Polynomial(q, [m])) for m in monomials]
    if not len(frozen) == len(km.kernel) == ech.rank == echelonize(frozen).rank:
        return False
    return not any(ech.reduce(v) for v in frozen)
