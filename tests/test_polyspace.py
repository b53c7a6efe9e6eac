from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import property_checks as pc
from cohitlab.polyspace import (
    DualElement,
    Polynomial,
    alpha,
    count_monomials,
    degree,
    enumerate_monomials,
    format_monomial,
    is_minimal_spike,
    is_spike,
    minimal_spike,
    monomial_key,
    mu,
    pairing,
    weight_vector,
)

monomials_4 = st.lists(
    st.tuples(*([st.integers(0, 15)] * 4)), min_size=0, max_size=6
)


def test_alpha_known_values():
    assert [alpha(n) for n in range(9)] == [0, 1, 1, 2, 1, 2, 2, 3, 1]
    assert alpha(2**20 - 1) == 20


def test_mu_known_values():
    # smallest number of terms of the form 2^t - 1 summing to n
    assert mu(0) == 0
    assert mu(1) == 1  # 1
    assert mu(2) == 2  # 1 + 1
    assert mu(3) == 1  # 3
    assert mu(4) == 2  # 3 + 1
    assert mu(5) == 3  # 3 + 1 + 1
    assert mu(6) == 2  # 3 + 3
    assert mu(7) == 1
    assert mu(9) == 3  # 7 + 1 + 1
    assert mu(17) == 3  # 15 + 1 + 1
    assert mu(21) == 3  # 7 + 7 + 7
    assert mu(45) == 3  # 31 + 7 + 7
    assert mu(64) == 2  # 63 + 1
    assert mu(65) == 3  # 63 + 1 + 1


@given(st.integers(0, 4000))
def test_mu_definition(n):
    m = mu(n)
    assert alpha(n + m) <= m
    assert all(alpha(n + k) > k for k in range(m))


def test_enumerate_monomials_counts_and_degrees():
    for q in (1, 2, 3, 4):
        for n in (0, 1, 5, 9):
            monos = enumerate_monomials(q, n)
            assert len(monos) == count_monomials(q, n)
            assert len(monos) == math.comb(n + q - 1, q - 1)
            assert all(degree(m) == n and len(m) == q for m in monos)
            assert len(set(monos)) == len(monos)


def test_enumeration_is_exponent_lex_ascending():
    monos = enumerate_monomials(3, 7)
    assert monos == sorted(monos)


def test_weight_vector_examples():
    assert weight_vector((7, 1, 1, 0)) == (3, 1, 1)
    assert weight_vector((1, 3, 3, 2)) == (3, 3)
    assert weight_vector((0, 0, 0, 0)) == ()
    assert weight_vector((15, 15, 15, 0)) == (3, 3, 3, 3)
    assert weight_vector((2, 4, 8)) == (0, 1, 1, 1)


def test_weight_vector_rejects_a_negative_exponent():
    for mono in ((1, -1), (-2,), (0, 3, -4)):
        with pytest.raises(ValueError, match="negative exponent"):
            weight_vector(mono)


@given(st.tuples(*([st.integers(0, 63)] * 4)))
def test_weight_vector_recovers_the_degree(mono):
    w = weight_vector(mono)
    assert sum(wi << i for i, wi in enumerate(w)) == degree(mono)


def test_spike_predicates():
    assert is_spike((7, 1, 1, 0))
    assert is_spike((0, 0, 0, 0))  # every exponent is 2^0 - 1
    assert not is_spike((7, 2, 1, 0))
    assert is_minimal_spike((7, 1, 1, 0))
    assert not is_minimal_spike((1, 7, 1, 0))  # exponents must not increase
    assert not is_minimal_spike((7, 3, 3, 3))  # only the last two may repeat
    assert is_minimal_spike((7, 3, 3, 0))
    assert is_minimal_spike((15, 1, 1, 0))


def test_minimal_spike_matches_mu():
    for q in (1, 2, 3, 4):
        for n in range(1, 64):
            m = minimal_spike(q, n)
            if mu(n) > q:
                assert m is None
            else:
                assert m is not None
                assert degree(m) == n
                assert is_minimal_spike(m)
                assert sum(1 for e in m if e) == mu(n)


def _minimal_spike_reference(q, n):
    """The minimal spike by search: parts 2^d - 1, strictly decreasing but
    for the last two, the largest first."""
    if n <= 0 or mu(n) > q:
        return None

    def rec(remaining, slots, max_d):
        if slots == 0:
            return [] if remaining == 0 else None
        for d in range(max_d, 0, -1):
            part = (1 << d) - 1
            if part <= remaining:
                rest = rec(remaining - part, slots - 1, d if slots == 2 else d - 1)
                if rest is not None:
                    return [part] + rest
        return None

    parts = rec(n, mu(n), n.bit_length())
    return tuple(parts) + (0,) * (q - mu(n))


def test_minimal_spike_equals_the_search():
    for q in range(1, 6):
        for n in range(-2, 600):
            assert minimal_spike(q, n) == _minimal_spike_reference(q, n), (q, n)


def test_minimal_spike_known_shapes():
    assert minimal_spike(4, 9) == (7, 1, 1, 0)
    assert minimal_spike(4, 17) == (15, 1, 1, 0)
    # the exponent exponents must strictly decrease (last two may tie), so
    # the canonical degree-21 choice is 15 + 3 + 3, not 7 + 7 + 7
    assert minimal_spike(4, 21) == (15, 3, 3, 0)
    assert minimal_spike(4, 45) == (31, 7, 7, 0)
    assert minimal_spike(4, 5) == (3, 1, 1, 0)
    assert minimal_spike(2, 5) is None


def test_format_monomial():
    assert format_monomial((1, 0, 2)) == "x1 x3^2"
    assert format_monomial((0, 0, 0)) == "1"


def test_polynomial_xor_cancels():
    f = Polynomial(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    g = Polynomial(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    assert (f ^ g).sorted_terms() == sorted(
        [(1, 0, 0, 0), (0, 0, 1, 0)], key=monomial_key
    )
    assert (f ^ f).is_zero()


def test_polynomial_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        Polynomial(3, [(1, 0, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        DualElement(3, [(1, 0, 0), (1, 1, 0)])


@given(monomials_4)
def test_polynomial_json_round_trip(monos):
    degree_groups = {}
    for m in monos:
        degree_groups.setdefault(degree(m), []).append(m)
    for group in degree_groups.values():
        f = Polynomial(4, group)
        assert Polynomial.from_json(pc.to_json(f)) == f
        theta = DualElement(4, group)
        assert DualElement.from_json(pc.to_json(theta)) == theta


def test_polynomials_and_dual_elements_stay_apart():
    terms = [(1, 2, 0), (0, 2, 1)]
    f, theta = Polynomial(3, terms), DualElement(3, terms)
    assert f != theta and theta != f
    with pytest.raises(TypeError):
        f ^ theta
    with pytest.raises(TypeError):
        theta + f
    assert pc.to_json(f)["monomials"] == pc.to_json(theta)["terms"]
    assert "terms" not in pc.to_json(f) and "monomials" not in pc.to_json(theta)
    with pytest.raises(KeyError):
        Polynomial.from_json(pc.to_json(theta))


def test_pairing_is_the_dual_basis_pairing():
    theta = DualElement(3, [(1, 2, 0)])
    assert pairing(theta, Polynomial(3, [(1, 2, 0)])) == 1
    assert pairing(theta, Polynomial(3, [(0, 2, 1)])) == 0
    two = Polynomial(3, [(1, 2, 0), (0, 2, 1)])
    assert pairing(theta, two) == 1
    both = DualElement(3, [(1, 2, 0), (0, 2, 1)])
    assert pairing(both, two) == 0  # 1 + 1 over GF(2)


def test_pairing_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        pairing(DualElement(3, [(1, 0, 0)]), Polynomial(2, [(1, 0)]))
