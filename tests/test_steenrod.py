from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import property_checks as pc
from cohitlab.cohit import span_for
from cohitlab.f2linalg import from_support
from cohitlab.polyspace import (
    DualElement,
    Polynomial,
    enumerate_monomials,
    minimal_spike,
    monomial_key,
    padded_weight,
    pairing,
    weight_vector,
)
from cohitlab.steenrod import (
    HitSpan,
    binom_odd,
    hit_span,
    is_annihilated,
    live_monomials,
    sq,
    sq_dual,
    sq_dual_all,
    sq_dual_term,
    sq_monomial,
)


# -- references: the per-monomial filter, the recursive dual square and the
# per-row span build that live_monomials, sq_dual_term (and sq_dual_all, for
# psi) and the orbit build of HitSpan replaced ------------------------------


def _may_reach(g, t, bound):
    """False only when every term of Sq^t(g) has padded weight below bound."""
    while bound:
        top = sum(e & 1 for e in g) - (t & 1)
        if top != bound[0] or t & 1:
            return top >= bound[0]
        g = tuple(e >> 1 for e in g)
        t >>= 1
        bound = bound[1:]
    return True


def _sq_dual_term_reference(t, term):
    """Terms of (a^(term)) Sq^t, one factor at a time, deltas lex ascending."""
    if t == 0:
        return [term]
    q = len(term)
    out = []
    deltas = [0] * q

    def rec(i, remaining):
        if i == q:
            if remaining == 0:
                out.append(tuple(e - d for e, d in zip(term, deltas)))
            return
        e = term[i]
        for d in range(min(remaining, e // 2) + 1):
            if binom_odd(e - d, d):
                deltas[i] = d
                rec(i + 1, remaining - d)
        deltas[i] = 0

    rec(0, t)
    return out


class _PerRowSpan(HitSpan):
    """The hit span with every row Sq^t(g) offered, least senior pivot first."""

    def _build(self):
        pos = self.position
        self.rows = []
        t = 1
        while 2 * t <= self.n:
            for g in live_monomials(self.q, self.n - t, t, self._bound):
                row = [p for p in map(pos.get, sq_monomial(t, g)) if p is not None]
                if row:
                    self.rows.append(from_support(row))
            t <<= 1
        for row in sorted(self.rows, key=lambda r: r & -r, reverse=True):
            self.echelon.add(row)


def _spike_bound(q, n):
    spike = minimal_spike(q, n)
    return None if spike is None else padded_weight(weight_vector(spike), n)


def test_binom_odd_is_lucas():
    for a in range(40):
        for b in range(40):
            want = bool(math.comb(a, b) & 1) if b <= a else False
            assert binom_odd(a, b) == want


def test_sq_on_a_single_variable_power():
    # Sq^t(x^a) = C(a, t) x^{a+t}
    for a in range(1, 12):
        for t in range(0, 14):
            got = sq_monomial(t, (a,))
            want = [(a + t,)] if binom_odd(a, t) else []
            assert got == want


def test_sq_total_degree_and_instability():
    f = Polynomial(3, [(2, 1, 0)])
    assert sq(0, f) == f
    # Sq^t vanishes above the degree (unstable module)
    assert sq(4, f).is_zero()
    assert sq(5, f).is_zero()
    # top square is the Frobenius square
    assert sq(3, f) == f.square()


def test_sq_one_is_the_derivation_on_squares():
    # On x^2k, Sq^1 vanishes; on x^{2k+1} it gives x^{2k+2}
    assert sq(1, Polynomial(2, [(4, 0)])).is_zero()
    assert sq(1, Polynomial(2, [(3, 0)])) == Polynomial(2, [(4, 0)])


@st.composite
def homogeneous_polys(draw, q=3, max_degree=7, max_terms=4):
    n = draw(st.integers(1, max_degree))
    monos = pc.ordered_monomials(q, n)
    picks = draw(st.lists(st.sampled_from(monos), max_size=max_terms))
    return Polynomial(q, set(picks))


@given(homogeneous_polys(), homogeneous_polys(), st.integers(0, 6))
def test_cartan_formula(f, g, t):
    lhs = sq(t, f * g)
    rhs = Polynomial(3)
    for i in range(t + 1):
        rhs ^= sq(i, f) * sq(t - i, g)
    assert lhs == rhs


@given(homogeneous_polys())
def test_sq1_squared_is_zero(f):
    assert sq(1, sq(1, f)).is_zero()


@given(homogeneous_polys())
def test_adem_relation_sq2_sq2(f):
    # Sq^2 Sq^2 = Sq^3 Sq^1
    assert sq(2, sq(2, f)) == sq(3, sq(1, f))


@given(homogeneous_polys())
def test_adem_relation_sq1_sq2(f):
    # Sq^1 Sq^2 = Sq^3
    assert sq(1, sq(2, f)) == sq(3, f)


def test_dual_action_is_adjoint_exhaustively_in_low_degree():
    q, n, t = 2, 5, 2
    for term in enumerate_monomials(q, n):
        theta = DualElement(q, [term])
        moved = sq_dual(t, theta)
        for m in enumerate_monomials(q, n - t):
            f = Polynomial(q, [m])
            assert pairing(moved, f) == pairing(theta, sq(t, f))


@given(st.integers(1, 4))
def test_dual_action_drops_degree(t):
    theta = DualElement(2, [(3, 2)])
    moved = sq_dual(t, theta)
    assert moved.is_zero() or moved.degree == 5 - t


def test_is_annihilated_examples():
    # single-variable duals: a^(2^k - 1) is killed by every positive square
    assert is_annihilated(DualElement(1, [(1,)]))
    assert is_annihilated(DualElement(1, [(3,)]))
    assert is_annihilated(DualElement(1, [(7,)]))
    # a^(2) is not: <a^(2) Sq^1, x> = <a^(2), x^2> = 1
    assert not is_annihilated(DualElement(1, [(2,)]))
    assert sq_dual(1, DualElement(1, [(2,)])) == DualElement(1, [(1,)])
    assert is_annihilated(DualElement(1, []))


def test_hit_membership_one_variable():
    # Q_n(F2[x]) is nonzero exactly at n = 2^k - 1
    for n in range(1, 33):
        span = hit_span(1, n, None)
        expected = 0 if (n + 1) & n == 0 else 1
        assert span.rank == expected
        hit = span.echelon.contains(span.to_vector(Polynomial(1, [(n,)])))
        assert hit == (expected == 1)


def test_hit_span_columns_are_sorted_largest_first():
    span = HitSpan(2, 4)
    ascending = sorted(span.columns, key=monomial_key)
    positions = [span.position[m] for m in ascending]
    assert positions == sorted(positions, reverse=True)


def test_round_trips_through_span_coordinates():
    span = hit_span(3, 5, None)
    rng = random.Random(3)
    monos = pc.ordered_monomials(3, 5)
    for _ in range(10):
        f = Polynomial(3, set(rng.sample(monos, 4)))
        assert span.to_polynomial(span.to_vector(f)) == f
        theta = DualElement(3, set(rng.sample(monos, 4)))
        assert span.to_dual(span.dual_to_vector(theta)) == theta


def test_normal_form_kills_hit_elements():
    span = hit_span(2, 4, None)
    f = sq(1, Polynomial(2, [(2, 1)])) ^ sq(2, Polynomial(2, [(1, 1)]))
    assert span.echelon.contains(span.to_vector(f))
    assert span.normal_form(f).is_zero()
    g = Polynomial(2, [(3, 1)])  # a spike: never hit
    assert not span.echelon.contains(span.to_vector(g))
    assert span.normal_form(span.normal_form(g)) == span.normal_form(g)


def test_power_generators_span_the_full_hit_space():
    # Sq^1, Sq^2, Sq^4, ... generate: same span as using every Sq^t
    for q in (1, 2, 3):
        for n in range(1, 11):
            assert HitSpan(q, n).rank == pc.every_square_hit_rank(q, n)


def test_primitive_basis_is_annihilated_and_spans_the_kernel():
    span = hit_span(2, 6, None)
    prims = [span.to_dual(v) for v in span.primitive_vectors()]
    assert len(prims) == len(span.admissible_positions())
    for theta in prims:
        assert is_annihilated(theta)


def test_weight_restriction_presents_the_same_quotient():
    full = HitSpan(4, 9)
    pruned = HitSpan(4, 9, restrict_weight=(3, 1, 1))
    assert pruned.ncols < full.ncols
    assert full.ncols - full.rank == pruned.ncols - pruned.rank


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        HitSpan(2, -1)
    with pytest.raises(ValueError):
        HitSpan(9, 3)


def test_live_monomials_equal_the_filter_in_order():
    for q in range(1, 5):
        for n in range(1, 41):
            bound = _spike_bound(q, n)
            if bound is None:
                continue
            for t in [0] + [1 << i for i in range(n.bit_length())]:
                if t > n:
                    break
                want = [
                    g
                    for g in enumerate_monomials(q, n - t)
                    if _may_reach(g, t, bound)
                ]
                assert live_monomials(q, n - t, t, bound) == want, (q, n, t)


def test_live_monomials_without_a_bound_are_all_monomials():
    for q, m in ((1, 5), (3, 7), (4, 6)):
        for t in (0, 1, 2):
            assert live_monomials(q, m, t, ()) == enumerate_monomials(q, m)


def test_dropped_equals_the_census_of_dropped_columns():
    for q in range(1, 5):
        for n in range(1, 33):
            bound = _spike_bound(q, n)
            if bound is None:
                continue
            every = enumerate_monomials(q, n)
            below = [m for m in every if padded_weight(weight_vector(m), n) < bound]
            assert span_for(q, n).ncols + len(below) == len(every), (q, n)


def test_sq_dual_term_equals_the_recursive_reference():
    for q, top in ((1, 40), (2, 16), (3, 10), (4, 6)):
        for term in itertools.product(range(top + 1), repeat=q):
            every_t = sq_dual_all(term)
            for t in range(sum(term) // 2 + 2):
                want = _sq_dual_term_reference(t, term)
                assert sq_dual_term(t, term) == want
                assert [u for s, u in every_t if s == t] == want


def test_live_monomials_are_closed_under_permuting_the_variables():
    for q, degrees in ((1, range(1, 25)), (2, range(1, 25)), (3, range(1, 25)),
                       (4, (7, 10, 17, 22, 29, 33, 37)), (5, (5, 9, 12, 15, 20))):
        for n in degrees:
            bounds = [()]
            if _spike_bound(q, n) is not None:
                bounds.append(_spike_bound(q, n))
            for t in (0, 1, 2, 4, 8):
                if t > n:
                    break
                for bound in bounds:
                    live = live_monomials(q, n - t, t, bound)
                    found = set(live)
                    # adjacent transpositions generate every permutation
                    for j in range(q - 1):
                        swap = lambda g: g[:j] + (g[j + 1], g[j]) + g[j + 2:]
                        assert set(map(swap, live)) == found, (q, n, t, j)
                    reps = [g for g in live if list(g) == sorted(g, reverse=True)]
                    assert live_monomials(q, n - t, t, bound, True) == reps


def _same_span(span, ref):
    assert span.rank == ref.rank
    assert sorted(span.echelon.rows) == sorted(ref.echelon.rows)
    assert span.basis == ref.basis
    assert span.primitive_vectors() == ref.primitive_vectors()
    assert all(span.echelon.contains(row) for row in ref.rows)


def test_orbit_build_equals_the_per_row_reference():
    for q, top in ((1, 40), (2, 30), (3, 24), (4, 20), (5, 12)):
        for n in range(1, top + 1):
            _same_span(hit_span(q, n, None), _PerRowSpan(q, n))
    for q, degrees in ((3, range(25, 41)), (4, (29, 30, 33, 37)), (5, (15, 20))):
        for n in degrees:
            span = span_for(q, n)
            _same_span(span, _PerRowSpan(q, n, span.restrict_weight))
