"""Cross-module consistency properties at fast ranges.

The acceptance module re-runs the same checks at their full contract
ranges; here they run small so a regression is caught in seconds.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

import property_checks as pc
from cohitlab import refdata
from cohitlab.glaction import CoinvariantData, act_dual, generator_images
from cohitlab.lambda_algebra import homology_coordinates, psi
from cohitlab.polyspace import DualElement


def test_differential_squares_to_zero_small():
    assert pc.check_differential_squares_to_zero(3, 14) > 100


def test_adjointness_small():
    assert pc.check_adjointness(120) == 120


def test_primitive_dims_small():
    assert pc.check_primitives_match_cohit_dims(3, 10) == 30


def test_spike_criterion_small():
    assert pc.check_spike_criterion_against_brute_force(3, 10) > 20
    assert pc.check_spike_criterion_against_brute_force(4, 8) > 20


def test_pruned_span_matches_the_unpruned_span():
    assert pc.check_pruned_span_matches_unpruned(4, 30, extra=((4, 37),)) > 50


def test_weight_dims_small():
    assert pc.check_weight_dims_sum_to_cohit_dim(3, 12) == 12
    assert pc.check_weight_dims_sum_to_cohit_dim(4, 8) == 8


def test_low_rank_transfer_small():
    assert pc.check_low_rank_transfer_is_iso(2, 10) == 22


def test_length_one_homology_small():
    pc.check_length_one_homology(20)


def test_length_two_homology_small():
    pc.check_length_two_homology_census(20)


def test_psi_commutes_with_sq0():
    assert pc.check_psi_commutes_with_sq0(300) == 300


def test_doubling_keeps_primitives():
    assert pc.check_doubling_keeps_primitives(4, 12) > 300


def test_transfer_rows_do_not_depend_on_the_representative():
    """Replacing a representative by a group translate fixes its row."""
    for q, n in ((4, 9), (3, 8), (2, 2)):
        data = CoinvariantData(q, n, "gl")
        for rep in data.representatives():
            base = homology_coordinates(psi(rep), q, n)
            for images in generator_images(q, "gl"):
                moved = act_dual(pc.transpose_images(images), rep)
                assert data.class_coordinates(moved) == data.class_coordinates(
                    rep
                )
                assert homology_coordinates(psi(moved), q, n) == base


def test_fixture_dual_generators_are_annihilated():
    from cohitlab.steenrod import is_annihilated

    for terms, q in (
        (refdata.DUAL_GENERATOR_9, 4),
        (refdata.DUAL_GENERATOR_22, 4),
        (refdata.DUAL_GENERATOR_19_RANK3, 3),
        (refdata.DUAL_GENERATOR_45, 4),
    ):
        assert is_annihilated(DualElement(q, terms))


@given(st.integers(1, 3), st.integers(1, 10))
def test_cohit_dim_is_cached_consistently(q, n):
    # a second call is served from the in-process span memo
    from cohitlab.cohit import cohit_basis, cohit_dim

    assert cohit_dim(q, n) == cohit_dim(q, n) == len(cohit_basis(q, n))


@given(st.integers(0, 40))
def test_ext_dims_are_nonnegative_and_bounded(n):
    from cohitlab.lambda_algebra import admissible_basis, ext_dim

    for s in (1, 2):
        assert 0 <= ext_dim(s, n) <= len(admissible_basis(s, n))
