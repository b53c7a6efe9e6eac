"""Acceptance gate: one test (and one pass/fail line) per shipped criterion.

Every criterion is gating.  Criteria 1-6 and 9 run the named verification
suites that own their frozen numbers (``verify_suite``) and require each
report to pass, so every number is checked in one place; what no suite
checks (criterion 3's pairing of the computed representative) stays here.
Criterion 9 reaches degrees 64/65 (2.4-3.2 s wall on two cores).  Each test
prints a single summary line so a transcript of ``pytest -v`` doubles as
the checklist.  Every criterion computes from scratch: the engine keeps
nothing on disk, only in-process memos.  The budgets are CPU seconds of
this process (``time.process_time``), so a loaded host cannot fail them;
every criterion runs in-process, with no child process to miss.
"""

from __future__ import annotations

import time

import property_checks as pc
from cohitlab import refdata
from cohitlab.glaction import CoinvariantData
from cohitlab.lambda_algebra import ext_dim
from cohitlab.polyspace import Polynomial, pairing
from cohitlab.transferlab import verify_suite


def _line(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


def _suites_pass(*names: str) -> None:
    for name in names:
        report = verify_suite(name)
        failed = [c._asdict() for c in report.checks if c.status != "pass"]
        assert report.passed, failed


def test_criterion_1_dimension_table():
    t0 = time.process_time()
    _suites_pass("dlc1")
    elapsed = time.process_time() - t0
    assert elapsed < 300, f"budget 5 min, took {elapsed:.0f} CPU-s"
    _line("1", f"dim Q_9/21/45 = 46/94/105 in {elapsed:.1f}s")


def test_criterion_2_printed_bases():
    _suites_pass("dlc1", "dlc2")
    _line("2", "printed bases reproduced at n=9 (46) and n=17 (87)")


def test_criterion_3_coinvariants_and_the_pairing():
    t0 = time.process_time()
    _suites_pass("dlc1")
    # the computed degree-9 representative pairs to 1 against the invariant
    (rep,) = CoinvariantData(4, 9, "gl").representatives()
    invariant = Polynomial(4, refdata.GL_INVARIANT_GENERATOR_9)
    assert pairing(rep, invariant) == 1
    elapsed = time.process_time() - t0
    assert elapsed < 600, f"budget 10 min, took {elapsed:.0f} CPU-s"
    _line("3", f"coinvariant dims (1, 0, 1); <[rep], [invariant]> = 1; "
               f"{elapsed:.1f}s")


def test_criterion_4_degree_17_generator():
    assert len(refdata.DUAL_GENERATOR_17) == 44
    _suites_pass("dlc2", "eq6")
    _line("4", "44-term generator: annihilated, class-1, image = printed "
               "cycle + d(printed preimage)")


def test_criterion_5_printed_chain_images():
    _suites_pass("remark26")
    _line("5", "four printed images reproduce; [l1 l3 l3 l2] is nonzero "
               "at (4, 9)")


def test_criterion_6_halving_kernel():
    assert len(refdata.KAMEKO_KERNEL_BASIS_4_4) == 20
    _suites_pass("dlc3")
    _line("6", "kernel fixed points trivial at n=4, 10; 20-element kernel "
               "basis matches")


def test_criterion_7_homology_oracle():
    t0 = time.process_time()
    pc.check_length_one_homology(63)
    pc.check_length_two_homology_census(40)
    assert ext_dim(4, 9) == 1
    elapsed = time.process_time() - t0
    assert elapsed < 300, f"budget 5 min, took {elapsed:.0f} CPU-s"
    _line("7", f"length-1 table to n=63, length-2 census to n=40, "
               f"ext(4,9)=1 in {elapsed:.1f}s")


def test_criterion_8_property_suites():
    t0 = time.process_time()
    counts = {
        "d2": pc.check_differential_squares_to_zero(4, 52),
        "adjoint": pc.check_adjointness(1000),
        "primitives": pc.check_primitives_match_cohit_dims(4, 20),
        "spikes": pc.check_spike_criterion_against_brute_force(4, 16),
        "weights": pc.check_weight_dims_sum_to_cohit_dim(4, 21),
        "transfer": pc.check_low_rank_transfer_is_iso(3, 20),
    }
    elapsed = time.process_time() - t0
    assert all(v > 0 for v in counts.values())
    assert elapsed < 1200, f"budget 20 min, took {elapsed:.0f} CPU-s"
    _line("8", "property suites " + ", ".join(
        f"{k}={v}" for k, v in counts.items()) + f" in {elapsed:.1f}s")


def test_criterion_9_stretch_degrees():
    t0 = time.process_time()
    reports = [verify_suite(name) for name in ("dlct", "dlct2")]
    checks = [c for r in reports for c in r.checks]
    assert all(r.passed for r in reports), [c._asdict() for c in checks if not c.ok]
    elapsed = time.process_time() - t0
    assert elapsed < 7200, f"budget 2 h, took {elapsed:.0f} CPU-s"
    _line("9", f"dim Q_64/65 = 115/150; coinvariants at 64/65 both rank 1, "
               f"generated by the frozen duals; transfer iso at 64 and 65; "
               f"{elapsed:.1f}s")
