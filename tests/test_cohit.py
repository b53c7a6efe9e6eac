from __future__ import annotations

import pytest

import property_checks as pc
from cohitlab import cohit, refdata
from cohitlab.cohit import (
    ResourceLimit,
    cohit_basis,
    cohit_dim,
    kameko_down_monomial,
    kameko_matrix,
    span_for,
    weight_subquotient,
    weight_table,
)
from cohitlab.polyspace import Polynomial, mu, trim_weight, weight_vector, weight_vectors
from cohitlab.steenrod import hit_span


def kameko_down(f: Polynomial) -> Polynomial:
    """The halving map on polynomials: halve the all-odd monomials, drop the rest."""
    halves = map(kameko_down_monomial, f.terms)
    return Polynomial(f.q, [d for d in halves if d is not None])


def test_one_variable_dims():
    for n in range(1, 32):
        expected = 1 if (n + 1) & n == 0 else 0
        assert cohit_dim(1, n) == expected


def test_two_variable_dims_against_the_frozen_table():
    for n, dim in refdata.COHIT_DIMS_RANK2.items():
        assert cohit_dim(2, n) == dim, f"n={n}"


def test_three_variable_dims_small():
    for n, dim in refdata.COHIT_DIMS_RANK3.items():
        if n <= 12:
            assert cohit_dim(3, n) == dim, f"n={n}"


def test_dims_vanish_exactly_when_mu_exceeds_the_rank():
    for q in (2, 3):
        table = (
            refdata.COHIT_DIMS_RANK2 if q == 2 else refdata.COHIT_DIMS_RANK3
        )
        for n, dim in table.items():
            assert (dim == 0) == (mu(n) > q), f"q={q} n={n}"


def test_quotient_coordinates_round_trip():
    data = span_for(3, 6)
    for i, m in enumerate(data.basis):
        f = Polynomial(3, [m])
        assert data.coordinates(f) == 1 << i
        assert data.from_coordinates(1 << i) == f
    # a hit element has zero coordinates
    hit = pc.sq(1, Polynomial(3, [(1, 2, 2)])) ^ pc.sq(2, Polynomial(3, [(2, 1, 1)]))
    if not hit.is_zero():
        assert data.coordinates(hit) == 0


def test_basis_monomials_are_not_hit():
    span = hit_span(3, 8, None)
    for m in cohit_basis(3, 8):
        assert span.coordinates(Polynomial(3, [m])) != 0


def test_weight_table_totals():
    for q, n in ((2, 6), (3, 8), (4, 9)):
        table = weight_table(q, n)
        assert sum(table.values()) == cohit_dim(q, n)


def test_weight_table_equals_the_pivot_census():
    # the census over the unpruned span: per weight, reading the columns
    # from the top, its columns minus its pivots
    for q in range(1, 5):
        for n in range(1, 31):
            span = hit_span(q, n, None)
            census: dict = {}
            for p, m in reversed(list(enumerate(span.columns))):
                w = weight_vector(m)
                census[w] = census.get(w, 0) + (p not in span.echelon.rows)
            got = weight_table(q, n)
            assert list(got.items()) == list(census.items()), (q, n)


def test_weight_dims_from_the_fixture():
    for (q, n), dims in refdata.WEIGHT_DIMS.items():
        got = {w: d for w, d in weight_table(q, n).items() if d}
        assert got == dims, (q, n)


def test_weight_subquotient_matches_the_table():
    table = weight_table(4, 9)
    for w, dim in table.items():
        got_dim, basis = weight_subquotient(4, 9, w)
        assert got_dim == dim
        assert len(basis) == dim
        assert all(weight_vector(m) == w for m in basis)


def test_weight_subquotient_ignores_trailing_zeros():
    a = weight_subquotient(4, 9, (3, 1, 1))
    b = weight_subquotient(4, 9, (3, 1, 1, 0, 0))
    assert a == b


def test_weight_block_is_the_weight_filter():
    for q, n in ((3, 8), (4, 9), (4, 21), (4, 37)):
        span = span_for(q, n)
        for w in weight_vectors(q, n) + [(q + 1,)]:
            for omega in (w, w + (0, 0, 0)):
                want = [i for i, m in enumerate(span.basis)
                        if weight_vector(m) == trim_weight(omega)]
                assert list(span.weight_block(omega)) == want, (q, n, omega)


def test_spike_free_degrees_have_no_column():
    # mu(n) > q: every monomial is hit (Wood), so the bound leaves no column
    spike_free = [(q, n) for q in (1, 2, 3, 4) for n in range(1, 46) if mu(n) > q]
    assert len(spike_free) > 40
    for q, n in spike_free:
        assert span_for(q, n).ncols == 0, (q, n)
        assert hit_span(q, n, None).dim == 0, (q, n)
    assert [cohit_dim(q, 0) for q in (1, 2, 3, 4)] == [1, 1, 1, 1]


def test_kameko_monomial_maps():
    assert kameko_down_monomial((3, 1, 5)) == (1, 0, 2)
    assert kameko_down_monomial((2, 1, 5)) is None  # an even exponent
    f = Polynomial(2, [(3, 3), (1, 5), (2, 4)])
    assert kameko_down(f) == Polynomial(2, [(1, 1), (0, 2)])


def test_kameko_iso_when_mu_says_so():
    # mu(11) = 3, so the halving map Q_11 -> Q_4 at rank 3 is an isomorphism
    km = kameko_matrix(3, 11)
    assert km.target_degree == 4
    assert km.domain.dim == refdata.COHIT_DIMS_RANK3[11] == 8
    assert km.codomain.dim == refdata.COHIT_DIMS_RANK3[4] == 8
    assert km.rank() == 8
    assert km.is_surjective()
    assert km.kernel == []


def test_kameko_surjective_with_kernel():
    # mu(10) = 2 < 4: surjective but far from injective
    km = kameko_matrix(4, 10)
    assert km.target_degree == 3
    assert km.is_surjective()
    assert len(km.kernel) == km.domain.dim - km.codomain.dim
    for vec in km.kernel:
        image = 0
        bits = vec
        while bits:
            i = bits & -bits
            image ^= km.images[i.bit_length() - 1]
            bits ^= i
        assert image == 0


def test_kameko_images_match_the_polynomial_formula():
    # the reference reads each halved basis monomial as a polynomial
    for q, degrees in ((2, range(2, 41, 2)), (3, range(3, 42, 2)),
                       (4, range(4, 39, 2)), (5, range(5, 24, 2))):
        for n in degrees:
            km = kameko_matrix(q, n)
            reference = []
            for b in km.domain.basis:
                d = kameko_down_monomial(b)
                image = Polynomial(q, [] if d is None else [d])
                reference.append(km.codomain.coordinates(image))
            assert km.images == reference, (q, n)


def test_kameko_kernel_classes_map_to_zero():
    km = kameko_matrix(4, 4)
    kernel = [km.domain.from_coordinates(v) for v in km.kernel]
    assert kernel
    for g in kernel:
        assert km.codomain.coordinates(kameko_down(g)) == 0


def test_resource_limit_mentions_the_budget(monkeypatch):
    cohit_dim(4, 9)  # memoized: the budget still applies to the next call
    monkeypatch.setattr(cohit, "MAX_COLUMNS", 10)
    with pytest.raises(ResourceLimit, match="budget is 10"):
        cohit_dim(4, 9)


def test_prune_reproduces_the_unpruned_dimension():
    for q, n in ((3, 8), (4, 9), (4, 17)):
        full = hit_span(q, n, None)
        assert span_for(q, n).ncols < full.ncols
        assert cohit_dim(q, n) == full.ncols - full.rank


def test_the_engine_writes_nothing_to_disk(tmp_path, monkeypatch):
    from cohitlab import steenrod
    from cohitlab.glaction import coinvariants

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COHITLAB_CACHE", str(tmp_path / "cache"))
    steenrod.clear_cache()  # build the span here, not in an earlier test
    assert len(cohit_basis(4, 9)) == 46
    assert sum(weight_table(4, 9).values()) == 46
    assert coinvariants(4, 9, "gl").dim == 1
    assert list(tmp_path.iterdir()) == []
