from __future__ import annotations

import concurrent.futures
import multiprocessing
import pickle
from concurrent.futures import Future

import pytest

from cohitlab import cohit, glaction, lambda_algebra, refdata, transferlab
from cohitlab.f2linalg import support
from cohitlab.lambda_algebra import homology_coordinates, psi
from cohitlab.transferlab import (
    SUITE_NAMES,
    CheckResult,
    SuiteReport,
    TransferReport,
    verdict,
    verify_all,
    verify_suite,
)


def test_report_flag_semantics():
    rep = TransferReport(4, 9, 2, 3, 2, [], None)
    assert rep.injective and not rep.surjective and not rep.isomorphism
    rep = TransferReport(4, 9, 3, 2, 2, [], None)
    assert rep.surjective and not rep.injective
    rep = TransferReport(4, 9, 2, 2, 2, [], None)
    assert rep.isomorphism


def test_degree_zero_is_the_identity():
    for q in (1, 2, 3, 4):
        rep = verdict(q, 0)
        assert (rep.domain_dim, rep.codomain_dim, rep.rank) == (1, 1, 1)
        assert rep.isomorphism
        assert rep.matrix == [1]


def test_degree_nine_is_an_isomorphism():
    rep = verdict(4, 9)
    assert rep.domain_dim == rep.codomain_dim == rep.rank == 1
    assert rep.matrix == [1]
    assert rep.isomorphism
    js = rep.to_json()
    assert js["isomorphism"] is True
    assert js["matrix"] == [[1]]
    assert len(js["representatives"]) == 1


def test_empty_domain_gives_the_empty_matrix():
    rep = verdict(4, 21)
    assert rep.domain_dim == 0 and rep.codomain_dim == 0
    assert rep.matrix == []
    assert rep.isomorphism  # vacuously


def test_rank_three_degree_eight():
    rep = verdict(3, 8)
    assert (rep.domain_dim, rep.codomain_dim, rep.isomorphism) == (1, 1, True)


def test_matrix_rows_are_bit_vectors_printed_bit_zero_first():
    # the one pinned bidegree whose rows hold two bits: row 0 has both set,
    # row 1 only bit 0, so JSON lists each row's codomain_dim bits low first
    rep = verdict(4, 18)
    assert rep.codomain_dim == 2 and rep.rank == 2
    assert rep.matrix == [3, 1]
    assert rep.to_json()["matrix"] == [[1, 1], [1, 0]]


def test_transfer_matrix_rows_are_homology_coordinates():
    rep = verdict(4, 9)
    (theta,) = rep.coinvariants.representatives()
    assert rep.matrix == [homology_coordinates(psi(theta), 4, 9)] == [1]


def test_small_fixture_verdicts():
    for (q, n), want in refdata.TRANSFER_VERDICTS.items():
        if n <= 10:
            rep = verdict(q, n)
            assert (rep.domain_dim, rep.codomain_dim, rep.isomorphism) == want


def test_unknown_suite_name_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("nope")


def test_suite_names_are_stable():
    assert SUITE_NAMES == (
        "dlc1",
        "dlc2",
        "dlct",
        "dlc3",
        "dlct2",
        "remark26",
        "eq6",
        "exttables",
    )


def test_identity_suites_pass():
    for name in ("remark26", "eq6"):
        report = verify_suite(name)
        assert report.passed
        assert all(c.status == "pass" for c in report.checks)
        js = report.to_json()
        assert js["name"] == name and js["passed"] is True
        assert set(js) == {"name", "passed", "checks"}


def test_suite_degrees_cover_every_frozen_table_once():
    tables = (
        "COHIT_DIMS",
        "COHIT_DIMS_REGRESSION",
        "COINVARIANT_DIMS",
        "COINVARIANT_DIMS_STRETCH",
        "KAMEKO_KERNEL_INVARIANT_DIMS",
        "TRANSFER_VERDICTS",
        "TRANSFER_VERDICTS_STRETCH",
    )
    suite_degrees = transferlab.SUITE_DEGREES
    owned = [b for degrees in suite_degrees.values() for b in degrees]
    assert len(owned) == len(set(owned))  # no bidegree in two suites
    assert set(suite_degrees) <= set(SUITE_NAMES)
    for table in tables:
        missing = set(getattr(refdata, table)) - set(owned)
        assert not missing, (table, missing)


def test_resource_caps_stop_the_suite(monkeypatch):
    monkeypatch.setattr(cohit, "MAX_COLUMNS", 40)
    with pytest.raises(cohit.ResourceLimit, match="budget is 40"):
        verify_suite("dlc2")


def test_every_refusal_is_a_resource_limit_that_crosses_a_process():
    # a pool worker pickles the exception it raised; the caller re-raises it
    for exc, error in ((cohit.ResourceLimit("columns"), "resource-limit"),
                       (lambda_algebra.RewriteBudget("rewrites"), "rewrite-budget")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and isinstance(back, cohit.ResourceLimit)
        assert (back.error, str(back)) == (error, str(exc))
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as pool:
        refused = pool.submit(lambda_algebra.ext_dim, 4, 200)
        with pytest.raises(cohit.ResourceLimit, match="budget of 2097152"):
            refused.result()


def test_mismatch_is_reported_with_a_diff(monkeypatch):
    broken = dict(refdata.PSI_RAW_TERM_IMAGES_9)
    broken[(1, 6, 1, 1)] = ((2, 5, 1, 1),)
    monkeypatch.setattr(refdata, "PSI_RAW_TERM_IMAGES_9", broken)
    report = verify_suite("remark26")
    assert not report.passed
    bad = [c for c in report.checks if c.status == "fail"]
    assert any("(1, 6, 1, 1)" in c.name for c in bad)
    assert all("got" in c.detail and "want" in c.detail for c in bad)


def test_verify_all_preserves_order():
    reports = verify_all(("eq6", "remark26"))
    assert [r.name for r in reports] == ["eq6", "remark26"]


def test_suites_run_serially_each_hold_only_their_own_checks():
    # a shared default list would give the second report the first's checks
    for r in verify_all(("remark26", "eq6")):
        assert r.checks and {c.suite for c in r.checks} == {r.name}


def test_verify_all_with_process_fanout():
    reports = verify_all(("remark26", "eq6"), jobs=2)
    assert [r.name for r in reports] == ["remark26", "eq6"]
    assert all(r.passed for r in reports)


class RecordingPool:
    """Stands in for the process pool: records its size, runs nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers: int):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def submit(self, fn, name: str) -> Future:
        done = Future()
        done.set_result(SuiteReport(name, []))
        return done


def test_verify_all_asks_for_one_worker_per_suite_at_most(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    reports = verify_all(("remark26", "eq6"), jobs=64)
    assert [r.name for r in reports] == ["remark26", "eq6"]
    assert RecordingPool.sizes == [2]
    verify_all(SUITE_NAMES, jobs=3)
    assert RecordingPool.sizes == [2, 3]
    # one suite or none runs here, with no pool
    assert [r.name for r in verify_all(("remark26",), jobs=4)] == ["remark26"]
    assert verify_all((), jobs=2) == []
    assert RecordingPool.sizes == [2, 3]


def test_check_result_json_round_trip():
    c = CheckResult("s", "check", "fail", "got 1, want 2")
    assert c._asdict() == {
        "suite": "s",
        "name": "check",
        "status": "fail",
        "detail": "got 1, want 2",
    }
    assert not c.ok
    report = SuiteReport("s", [c])
    assert not report.passed
    assert report.to_json() == {"name": "s", "passed": False, "checks": [c._asdict()]}


def test_fixed_points_of_two_dimensions_are_not_generated_by_one_class():
    report = glaction.invariants(4, 18, "gl")
    assert report.dim == 2
    first = [report.basis_monomials[i] for i in support(report.vectors[0])]
    assert not transferlab._generates_fixed_points(4, 18, first)


def test_a_generator_missing_a_monomial_generates_no_fixed_points():
    gen = refdata.GL_INVARIANT_GENERATOR_9
    assert transferlab._generates_fixed_points(4, 9, gen)
    for i in range(len(gen)):
        assert not transferlab._generates_fixed_points(4, 9, gen[:i] + gen[i + 1:])
    weight = refdata.GL_INVARIANT_GENERATOR_45_WEIGHT
    omega = (3, 3, 3, 3)
    assert transferlab._generates_fixed_points(4, 45, weight, omega)
    assert not transferlab._generates_fixed_points(4, 45, weight[1:], omega)


def test_a_class_outside_the_halving_kernel_fails_the_kernel_check():
    frozen = refdata.KAMEKO_KERNEL_BASIS_4_4
    assert transferlab._kameko_kernel_matches(4, 4, frozen)
    assert not transferlab._kameko_kernel_matches(4, 4, frozen[1:])
    # 20 classes of rank 20, as many as the kernel has: only membership fails
    swapped = [(1, 1, 1, 1), *frozen[1:]]
    assert not transferlab._kameko_kernel_matches(4, 4, swapped)
