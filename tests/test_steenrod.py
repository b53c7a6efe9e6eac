from __future__ import annotations

import functools
import itertools
import math
import random
from operator import xor
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import property_checks as pc
from cohitlab.cohit import span_for
from cohitlab import f2linalg, refdata, steenrod
from cohitlab.f2linalg import from_support, support
from cohitlab.polyspace import (
    DualElement,
    Polynomial,
    enumerate_monomials,
    minimal_spike,
    monomial_key,
    padded_weight,
    pairing,
    weight_vector,
    weight_vectors,
)
from cohitlab.steenrod import (
    HitSpan,
    _cosets,
    _lane_width,
    _permutations,
    _reaches,
    _sq_word,
    _submasks,
    _unpack,
    binom_odd,
    hit_span,
    is_annihilated,
    live_monomials,
    sq_dual_all,
)


# -- references: the per-monomial filter, the recursive dual square, the
# per-square primitivity test, the dot with every hit row and the per-row
# span build on exponent tuples that live_monomials, sq_dual_all,
# is_annihilated, HitSpan.primitive_coordinates and the orbit build of
# HitSpan on packed words replaced --------------------------------------------


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
    """The hit span with every row Sq^t(g) offered, least senior pivot first,
    each g an exponent tuple kept by the per-monomial filter."""

    def _build(self, index):
        pos = self.position
        self.rows = []
        t = 1
        while 2 * t <= self.n:
            for g in enumerate_monomials(self.q, self.n - t):
                if not _may_reach(g, t, self._bound):
                    continue
                row = [p for p in map(pos.get, pc.sq_monomial(t, g)) if p is not None]
                if row:
                    self.rows.append(from_support(row))
            t <<= 1
        for row in sorted(self.rows, key=int.bit_length):
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
            got = pc.sq_monomial(t, (a,))
            want = [(a + t,)] if binom_odd(a, t) else []
            assert got == want


def test_sq_total_degree_and_instability():
    f = Polynomial(3, [(2, 1, 0)])
    assert pc.sq(0, f) == f
    # Sq^t vanishes above the degree (unstable module)
    assert pc.sq(4, f).is_zero()
    assert pc.sq(5, f).is_zero()
    # top square is the Frobenius square
    assert pc.sq(3, f) == Polynomial(3, [(4, 2, 0)])


def test_sq_one_is_the_derivation_on_squares():
    # On x^2k, Sq^1 vanishes; on x^{2k+1} it gives x^{2k+2}
    assert pc.sq(1, Polynomial(2, [(4, 0)])).is_zero()
    assert pc.sq(1, Polynomial(2, [(3, 0)])) == Polynomial(2, [(4, 0)])


@st.composite
def homogeneous_polys(draw, q=3, max_degree=7, max_terms=4):
    n = draw(st.integers(1, max_degree))
    monos = pc.ordered_monomials(q, n)
    picks = draw(st.lists(st.sampled_from(monos), max_size=max_terms))
    return Polynomial(q, set(picks))


def _product(f, g):
    """The product of two polynomials, one pair of terms at a time."""
    acc = set()
    for a in f.terms:
        for b in g.terms:
            acc ^= {tuple(x + y for x, y in zip(a, b))}
    return Polynomial(f.q, acc)


@given(homogeneous_polys(), homogeneous_polys(), st.integers(0, 6))
def test_cartan_formula(f, g, t):
    lhs = pc.sq(t, _product(f, g))
    rhs = Polynomial(3)
    for i in range(t + 1):
        rhs ^= _product(pc.sq(i, f), pc.sq(t - i, g))
    assert lhs == rhs


@given(homogeneous_polys())
def test_sq1_squared_is_zero(f):
    assert pc.sq(1, pc.sq(1, f)).is_zero()


@given(homogeneous_polys())
def test_adem_relation_sq2_sq2(f):
    # Sq^2 Sq^2 = Sq^3 Sq^1
    assert pc.sq(2, pc.sq(2, f)) == pc.sq(3, pc.sq(1, f))


@given(homogeneous_polys())
def test_adem_relation_sq1_sq2(f):
    # Sq^1 Sq^2 = Sq^3
    assert pc.sq(1, pc.sq(2, f)) == pc.sq(3, f)


def test_dual_action_is_adjoint_exhaustively_in_low_degree():
    q, n, t = 2, 5, 2
    for term in enumerate_monomials(q, n):
        theta = DualElement(q, [term])
        moved = pc.sq_dual(t, theta)
        for m in enumerate_monomials(q, n - t):
            f = Polynomial(q, [m])
            assert pairing(moved, f) == pairing(theta, pc.sq(t, f))


@given(st.integers(1, 4))
def test_dual_action_drops_degree(t):
    theta = DualElement(2, [(3, 2)])
    moved = pc.sq_dual(t, theta)
    assert moved.is_zero() or moved.degree == 5 - t


def test_is_annihilated_examples():
    # single-variable duals: a^(2^k - 1) is killed by every positive square
    assert is_annihilated(DualElement(1, [(1,)]))
    assert is_annihilated(DualElement(1, [(3,)]))
    assert is_annihilated(DualElement(1, [(7,)]))
    # a^(2) is not: <a^(2) Sq^1, x> = <a^(2), x^2> = 1
    assert not is_annihilated(DualElement(1, [(2,)]))
    assert pc.sq_dual(1, DualElement(1, [(2,)])) == DualElement(1, [(1,)])
    assert is_annihilated(DualElement(1, []))


def test_hit_membership_one_variable():
    # Q_n(F2[x]) is nonzero exactly at n = 2^k - 1
    for n in range(1, 33):
        span = hit_span(1, n, None)
        expected = 0 if (n + 1) & n == 0 else 1
        assert span.rank == expected
        hit = span.coordinates(Polynomial(1, [(n,)])) == 0
        assert hit == (expected == 1)


def test_hit_span_columns_ascend_in_the_monomial_order():
    span = HitSpan(2, 4)
    ascending = sorted(span.columns, key=monomial_key)
    positions = [span.position[m] for m in ascending]
    assert positions == list(range(span.ncols))


def test_the_build_offers_each_orbit_row_with_one_add(monkeypatch):
    # add reduces the row, stores the residual at its free pivot and answers
    # False for a row already in the span, so the build needs no reduce
    want = span_for(4, 22).basis

    def refuse(self, vec):
        raise AssertionError("the build called reduce")

    monkeypatch.setattr(f2linalg.EchelonForm, "reduce", refuse)
    span = HitSpan(4, 22)
    assert span.basis == want and span.dim == refdata.COHIT_DIMS_REGRESSION[(4, 22)]
    assert span.rank + span.dim == span.ncols


def test_round_trips_through_span_coordinates():
    span = hit_span(3, 5, None)
    rng = random.Random(3)
    monos = pc.ordered_monomials(3, 5)
    for _ in range(10):
        theta = DualElement(3, set(rng.sample(monos, 4)))
        assert pc.to_dual(span, span._column_bits(theta.terms)) == theta


def test_normal_form_kills_hit_elements():
    span = hit_span(2, 4, None)
    f = pc.sq(1, Polynomial(2, [(2, 1)])) ^ pc.sq(2, Polynomial(2, [(1, 1)]))
    assert span.coordinates(f) == 0
    assert span.from_coordinates(span.coordinates(f)).is_zero()
    g = Polynomial(2, [(3, 1)])  # a spike: never hit
    assert span.coordinates(g) != 0
    nf = span.from_coordinates(span.coordinates(g))
    assert span.from_coordinates(span.coordinates(nf)) == nf


def test_power_generators_span_the_full_hit_space():
    # Sq^1, Sq^2, Sq^4, ... generate: same span as using every Sq^t
    for q in (1, 2, 3):
        for n in range(1, 11):
            assert HitSpan(q, n).rank == pc.every_square_hit_rank(q, n)


def test_primitive_basis_is_annihilated_and_spans_the_kernel():
    span = hit_span(2, 6, None)
    prims = [pc.to_dual(span, v) for v in span.primitive_vectors()]
    assert len(prims) == span.ncols - span.rank == span.dim
    for theta in prims:
        assert is_annihilated(theta)


def test_primitive_k_is_dual_to_basis_monomial_k():
    for q, n in ((2, 5), (3, 8), (4, 9), (4, 37)):
        span = span_for(q, n)
        vectors = span.primitive_vectors()
        assert [span.primitive(k) for k in range(span.dim)] == vectors, (q, n)
        for v in vectors + [functools.reduce(xor, vectors, 0)]:
            assert span.dual_terms(v) == pc.to_json(pc.to_dual(span, v))["terms"], (q, n)
        prims = [pc.to_dual(span, v) for v in vectors]
        assert len(prims) == span.dim
        for k, theta in enumerate(prims):
            pairs = [pairing(theta, Polynomial(q, [m])) for m in span.basis]
            assert pairs == [int(i == k) for i in range(span.dim)], (q, n, k)
    assert span.restrict_weight is not None  # (4, 37) drops columns


def test_weight_restriction_presents_the_same_quotient():
    full = HitSpan(4, 9)
    pruned = HitSpan(4, 9, restrict_weight=(3, 1, 1))
    assert pruned.ncols < full.ncols
    assert full.ncols - full.rank == pruned.ncols - pruned.rank


def test_a_restricted_span_drops_only_monomials_below_its_bound():
    span = HitSpan(4, 9, restrict_weight=(3, 1, 1))
    bound = padded_weight((3, 1, 1), 9)
    every = enumerate_monomials(4, 9)
    below = [m for m in every if padded_weight(weight_vector(m), 9) < bound]
    assert below and span.sum_coordinates(below) == 0  # each one is hit
    top = span.columns[-1]
    # the wrong degree, the wrong variable count or a negative exponent
    for bad in ((1, 0, 0, 0), top[:3] + (top[3] + 1,), below[0] + (0,),
                below[0][:3], (10, -1, 0, 0)):
        with pytest.raises(KeyError):
            span.sum_coordinates([bad])
    # a monomial at or above the bound is not known to be hit, column or not
    del span.position[top]
    with pytest.raises(KeyError):
        span.sum_coordinates([top])
    with pytest.raises(KeyError):
        HitSpan(4, 9).sum_coordinates([(1, 0, 0, 0)])


def test_plane_by_plane_below_bound_equals_the_weight_filter():
    for q, n in ((3, 19), (4, 22), (4, 37), (4, 45), (5, 15)):
        span = span_for(q, n)
        assert span._bound
        # the span's own bound, no bound, and for the small degrees every
        # weight of the degree, read through spans that differ in _bound only
        spans = [span, SimpleNamespace(q=q, n=n, _bound=())]
        if (q, n) in ((3, 19), (4, 22)):
            spans += [SimpleNamespace(q=q, n=n, _bound=padded_weight(w, n))
                      for w in weight_vectors(q, n)]
        for m in enumerate_monomials(q, n):
            w = weight_vector(m)
            for s in spans:
                want = not _reaches(w, 0, s._bound)
                assert HitSpan._below_bound(s, m) == want, (q, n, s._bound, m)


def test_submask_walk_equals_the_range_filter():
    walk = _submasks.__wrapped__  # the memo is left as it is
    for e in (*range(4096), 131_071):
        assert walk(e) == tuple(d for d in range(e + 1) if d & e == d), e


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        HitSpan(2, -1)
    with pytest.raises(ValueError):
        HitSpan(9, 3)


def test_live_monomials_equal_the_filter_in_order():
    for q, degrees in ((1, range(1, 41)), (2, range(1, 41)), (3, range(1, 41)),
                       (4, range(1, 41)), (5, range(1, 21))):
        for n in degrees:
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
                want.sort(key=monomial_key)
                got = _unpack(q, n, live_monomials(q, n - t, t, bound))
                assert got == want, (q, n, t)


def test_live_monomials_without_a_bound_are_all_monomials():
    for q, m in ((1, 5), (3, 7), (4, 6)):
        for t in (0, 1, 2):
            want = sorted(enumerate_monomials(q, m), key=monomial_key)
            assert _unpack(q, m + t, live_monomials(q, m, t, ())) == want


def test_span_columns_are_the_monomials_above_the_spike_in_order():
    for q, degrees in ((1, range(1, 33)), (2, range(1, 33)), (3, range(1, 33)),
                       (4, (5, 9, 13, 22, 29, 37, 46)), (5, (6, 12, 15, 20, 24))):
        for n in degrees:
            # no spike: every monomial is hit (Wood), and no column stays
            bound = _spike_bound(q, n) or (q + 1,)
            want = [
                m
                for m in enumerate_monomials(q, n)
                if padded_weight(weight_vector(m), n) >= bound
            ]
            want.sort(key=monomial_key)
            assert list(span_for(q, n).columns) == want, (q, n)


def test_dropped_equals_the_census_of_dropped_columns():
    for q in range(1, 5):
        for n in range(1, 33):
            bound = _spike_bound(q, n)
            if bound is None:
                continue
            every = enumerate_monomials(q, n)
            below = [m for m in every if padded_weight(weight_vector(m), n) < bound]
            assert span_for(q, n).ncols + len(below) == len(every), (q, n)


def test_sq_dual_equals_the_recursive_reference():
    for q, top in ((1, 40), (2, 16), (3, 10), (4, 6)):
        for term in itertools.product(range(top + 1), repeat=q):
            every_t = sq_dual_all(term)
            for t in range(sum(term) // 2 + 2):
                want = _sq_dual_term_reference(t, term)
                assert pc.sq_dual(t, DualElement(q, [term])) == DualElement(q, want)
                assert [u for s, u in every_t if s == t] == want
    with pytest.raises(ValueError):
        pc.sq_dual(-1, DualElement(1, [(3,)]))


def _is_annihilated_reference(theta):
    """theta Sq^(2^i) = 0 for every 2^i up to the degree, one square at a time."""
    i = 1
    while i <= (theta.degree or 0):
        if not pc.sq_dual(i, theta).is_zero():
            return False
        i <<= 1
    return True


def test_is_annihilated_equals_the_per_square_reference():
    duals = [DualElement(len(terms[0]), terms)
             for name, terms in vars(refdata).items() if name.startswith("DUAL_")]
    assert len(duals) == 8 and all(map(is_annihilated, duals))
    rng = random.Random(29)
    for _ in range(200):  # random sums of a few terms
        q, n = rng.randint(1, 5), rng.randint(0, 40)
        monos = enumerate_monomials(q, n)
        size = min(len(monos), rng.randint(1, 6))
        duals.append(DualElement(q, rng.sample(monos, size)))
    for q, n in ((2, 10), (3, 13), (3, 18), (4, 9), (4, 21), (4, 33)):
        span, prims = span_for(q, n), span_for(q, n).primitive_vectors()
        for _ in range(20):  # a sum of primitives, alone and with one term more
            picked = rng.sample(prims, rng.randint(1, min(3, len(prims))))
            theta = pc.to_dual(span, functools.reduce(xor, picked))
            duals += [theta, theta ^ DualElement(q, [rng.choice(span.columns)])]
    answers = [is_annihilated(theta) for theta in duals]
    assert answers == list(map(_is_annihilated_reference, duals))
    assert 150 <= answers.count(True) <= len(duals) - 150


def _primitive_coordinates_reference(span, theta):
    """theta's column vector, dotted with every stored hit row; a term off
    the columns is hit, so theta pairs to 1 with it."""
    if any(m not in span.position for m in theta.terms):
        raise ValueError("not annihilated by all positive squares")
    vec = from_support(span.position[m] for m in theta.terms)
    if any((row & vec).bit_count() & 1 for row in span.echelon.rows.values()):
        raise ValueError("not annihilated by all positive squares")
    return from_support(k for k, m in enumerate(span.basis)
                        if vec >> span.position[m] & 1)


def test_primitive_coordinates_equal_the_dot_with_every_row():
    rng = random.Random(37)
    for q, n in ((3, 8), (4, 9), (4, 37), (4, 45)):
        span = span_for(q, n)
        for _ in range(6):
            bits = rng.getrandbits(span.dim)
            picked = map(span.primitive, support(bits))
            theta = pc.to_dual(span, functools.reduce(xor, picked, 0))
            assert span.primitive_coordinates(theta) == bits, (q, n)
            assert _primitive_coordinates_reference(span, theta) == bits, (q, n)
        # a term on a pivot column, and one on a dropped (hit) monomial
        terms = [span.columns[max(span.echelon.rows)]]
        terms += [m for m in enumerate_monomials(q, n) if m not in span.position][:1]
        for term in terms:
            for read in (span.primitive_coordinates,
                         functools.partial(_primitive_coordinates_reference, span)):
                with pytest.raises(ValueError, match="not annihilated by all positive"):
                    read(DualElement(q, [term]))
    assert span.restrict_weight is not None and len(terms) == 2  # (4, 45) drops columns



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
                    live = _unpack(q, n, live_monomials(q, n - t, t, bound))
                    found = set(live)
                    # adjacent transpositions generate every permutation
                    for j in range(q - 1):
                        swap = lambda g: g[:j] + (g[j + 1], g[j]) + g[j + 2:]
                        assert set(map(swap, live)) == found, (q, n, t, j)
                    reps = [g for g in live if list(g) == sorted(g, reverse=True)]
                    reps_built = live_monomials(q, n - t, t, bound, True)
                    assert _unpack(q, n, reps_built) == reps


def _same_span(span, ref):
    assert span.rank == ref.rank
    assert sorted(span.echelon.rows) == sorted(ref.echelon.rows)
    assert span.basis == ref.basis
    assert span.primitive_vectors() == ref.primitive_vectors()
    assert not any(span.echelon.reduce(row) for row in ref.rows)


def test_orbit_build_equals_the_per_row_reference():
    for q, top in ((1, 40), (2, 30), (3, 24), (4, 20), (5, 12)):
        for n in range(1, top + 1):
            _same_span(hit_span(q, n, None), _PerRowSpan(q, n))
    for q, degrees in ((3, range(25, 41)), (4, (29, 30, 33, 37)), (5, (15, 20))):
        for n in degrees:
            span = span_for(q, n)
            _same_span(span, _PerRowSpan(q, n, span.restrict_weight))


def _is_non_increasing(g):
    return all(a >= b for a, b in zip(g, g[1:]))


def test_one_packed_enumerator_gives_the_columns_and_the_representatives():
    # the last two degrees have exponents past 2^16, wider than a 16-bit lane
    cases = [(q, n) for q, top in ((1, 33), (2, 33), (3, 25), (4, 21), (5, 13))
             for n in range(top + 1)]
    for q, n in cases + [(1, 131071), (2, 196606)]:
        bounds = [_spike_bound(q, n)] if n > 1000 else [(), _spike_bound(q, n)]
        squares = (0, 1, 1 << 15, 1 << 16) if n > 1000 else (0, 1, 2, 4, 8)
        for bound in filter(lambda b: b is not None, bounds):
            for t in filter(lambda t: t <= n, squares):
                want = [g for g in enumerate_monomials(q, n - t)
                        if _may_reach(g, t, bound)]
                want.sort(key=monomial_key)
                live = live_monomials(q, n - t, t, bound)
                reps = live_monomials(q, n - t, t, bound, descending=True)
                assert _unpack(q, n, live) == want, (q, n, t, bound)
                assert _unpack(q, n, reps) == list(filter(_is_non_increasing, want))
                assert max(live, default=0) < 1 << q * _lane_width(n)
    # a lane holds the whole degree: the top exponents of (2, 196606) need 18 bits
    assert _unpack(2, 196606, [196606 << 18]) == [(196606, 0)]


def test_packed_squares_equal_the_tuple_reference():
    count = 0
    for q, top in ((1, 30), (2, 30), (3, 30), (4, 30), (5, 15)):
        for n in range(2, top + 1):
            bounds = {(), _spike_bound(q, n) or ()}
            t = 1
            while 2 * t <= n:
                for bound in bounds:
                    for g in live_monomials(q, n - t, t, bound, descending=True):
                        (mono,) = _unpack(q, n, [g])
                        got = _unpack(q, n, _sq_word(t, g, q, n))
                        assert got == pc.sq_monomial(t, mono), (q, n, t, mono)
                        count += 1
                t <<= 1
    # and across lanes wider than 16 bits, on the representatives with the
    # most exponent bits set, which have the most terms
    terms = 0
    for q, n in ((1, 131071), (2, 196606)):
        for t in (1, 1 << 15, 1 << 16):
            reps = live_monomials(q, n - t, t, (), descending=True)
            for g in sorted(reps, key=int.bit_count)[-4:]:
                (mono,) = _unpack(q, n, [g])
                got = _unpack(q, n, _sq_word(t, g, q, n))
                assert got == pc.sq_monomial(t, mono), (q, n, t, mono)
                count, terms = count + 1, terms + len(got)
    assert count > 5000 and terms > 100
    # a top lane of 131,071 with one degree left to add: two submasks of its
    # 131,072 are walked, and one term is kept
    got = _unpack(2, 196606, _sq_word(1, 131071 << 18 | 65534, 2, 196606))
    assert got == pc.sq_monomial(1, (131071, 65534)) == [(131072, 65534)]


def test_the_submask_walk_stops_at_the_degree_left(monkeypatch):
    # with two lanes the top lane is walked once, with all of t left, so the
    # walk takes exactly the submasks of the top exponent up to t
    taken = []

    class Slices(tuple):
        def __getitem__(self, key):
            got = super().__getitem__(key)
            if isinstance(key, slice):
                taken.append(got)
            return got

    monkeypatch.setattr(steenrod, "_submasks", lambda e: Slices(_submasks.__wrapped__(e)))
    n = 196606
    for t in (1, 2, 3, 1 << 15, 1 << 16):
        for top in (131071, 65534, 98304, 1 << 16):
            taken.clear()
            got = _unpack(2, n, _sq_word(t, top << _lane_width(n) | n - t - top, 2, n))
            assert got == pc.sq_monomial(t, (top, n - t - top)), (t, top)
            assert taken == [tuple(d for d in _submasks(top) if d <= t)], (t, top)


def test_the_coset_table_lists_each_distinct_image_once():
    assert _permutations(1) == (tuple,)
    for q in range(1, 6):
        perms = _permutations(q)
        for ties in itertools.product((False, True), repeat=q - 1):
            # a non-increasing g whose exponents j and j + 1 agree exactly
            # where ties[j] holds
            g = [9]
            for tie in ties:
                g.append(g[-1] - (not tie))
            g = tuple(g)
            images = {perm(g): perm for perm in perms}
            del images[g]
            assert [perms[k](g) for k in _cosets(ties)] == list(images), (q, ties)
