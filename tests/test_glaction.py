from __future__ import annotations

import functools
from operator import xor

import pytest

from property_checks import to_dual, to_json, transpose_images
from cohitlab import cohit, glaction, refdata
from cohitlab.cohit import ResourceLimit, span_for
from cohitlab.f2linalg import EchelonForm, echelonize, from_support, image_kernel, support
from cohitlab.glaction import (
    CoinvariantData,
    WeightLeak,
    act_dual,
    coinvariants,
    generator_images,
    invariants,
    kameko_kernel_invariants,
    plus_one_images,
    substitute,
    transvection_images,
    transposition_images,
)
from cohitlab.polyspace import (
    DualElement,
    Polynomial,
    enumerate_monomials,
    padded_weight,
    pairing,
    trim_weight,
    weight_vector,
    weight_vectors,
)
from cohitlab.steenrod import is_annihilated
from cohitlab.transferlab import verdict


def test_generator_images_shapes():
    for q in (2, 3, 4):
        sigma = generator_images(q, "sigma")
        gl = generator_images(q, "gl")
        assert len(gl) == len(sigma) + 1
        for images in gl:
            assert len(images) == q
    with pytest.raises(ValueError):
        generator_images(2, "borel")


def test_substitute_is_the_expected_swap():
    f = Polynomial(3, [(2, 1, 0)])
    swapped = substitute(transposition_images(3, 1), f)
    assert swapped == Polynomial(3, [(1, 2, 0)])


def test_substitute_transvection_expands_binomially():
    # x1 -> x1 + x2 on x1^2 gives x1^2 + x2^2
    f = Polynomial(2, [(2, 0)])
    moved = substitute(transvection_images(2), f)
    assert moved == Polynomial(2, [(2, 0), (0, 2)])


def test_substitutions_are_involutions_on_the_quotient():
    data = span_for(3, 6)
    for images in generator_images(3, "gl"):
        for i in range(data.dim):
            f = data.from_coordinates(1 << i)
            once = data.coordinates(substitute(images, f))
            twice = data.coordinates(substitute(images, data.from_coordinates(once)))
            assert twice == 1 << i


# degrees whose reference matrices take about a second in all
PLUS_ONE_DEGREES = {
    2: range(1, 33),
    3: range(1, 33),
    4: [*range(1, 26), 30, 33, 37, 45],
    5: range(1, 19),
}


def test_plus_one_images_match_the_polynomial_formula():
    # the reference: substitute into each basis monomial as a polynomial,
    # then read the class's coordinates
    for q, degrees in PLUS_ONE_DEGREES.items():
        for n in degrees:
            data = span_for(q, n)
            for group in ("sigma", "gl"):
                reference = tuple(
                    tuple(
                        data.coordinates(substitute(g, Polynomial(q, [mono]))) ^ (1 << i)
                        for i, mono in enumerate(data.basis)
                    )
                    for g in generator_images(q, group)
                )
                assert plus_one_images(q, n, group) == reference, (q, n, group)


def test_transpositions_permute_the_columns():
    # plus_one_images reads a transposition's image of a column as a column
    for q, degrees in PLUS_ONE_DEGREES.items():
        for n in degrees:
            span = span_for(q, n)
            for j in range(1, q):  # x_j <-> x_{j+1} swaps exponents j - 1 and j
                for mono in span.columns:
                    moved = mono[: j - 1] + (mono[j], mono[j - 1]) + mono[j + 1 :]
                    assert moved in span.position, (q, n, j, mono)


def test_the_gl_matrices_build_no_polynomial(monkeypatch):
    spans = [span_for(4, n) for n in (21, 22)]  # built before the patch

    def refuse(self, *args):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(Polynomial, "__init__", refuse)
    fresh = plus_one_images.__wrapped__
    for span in spans:
        for group in ("sigma", "gl"):
            assert len(fresh(4, span.n, group)) == len(generator_images(4, group))
    assert cohit.kameko_matrix(4, 22).domain is spans[1]


def printed_classes(report):
    """The fixed classes of a report as polynomials, read from its JSON."""
    return [Polynomial(report.q, terms) for terms in report.to_json()["representatives"]]


def test_rank_one_invariants_are_everything():
    for n in (1, 3, 7):
        report = invariants(1, n, "gl")
        assert report.dim == 1


def test_rank_two_invariants_in_degree_two():
    report = invariants(2, 2, "gl")
    assert report.dim == 1
    (rep,) = printed_classes(report)
    assert span_for(2, 2).coordinates(rep) != 0


def test_gl_invariants_refine_symmetric_ones():
    for q, n in ((2, 3), (3, 4), (4, 9)):
        gl = invariants(q, n, "gl").dim
        sigma = invariants(q, n, "sigma").dim
        assert gl <= sigma


def test_symmetric_invariants_match_fixtures():
    for (q, n), dim in refdata.SYMMETRIC_INVARIANT_DIMS.items():
        assert invariants(q, n, "sigma").dim == dim, (q, n)


def test_the_degree_nine_invariant_is_the_printed_sum():
    report = invariants(4, 9, "gl")
    assert report.dim == 1
    data = span_for(4, 9)
    printed = Polynomial(4, refdata.GL_INVARIANT_GENERATOR_9)
    assert data.coordinates(printed) != 0
    (rep,) = printed_classes(report)
    assert data.coordinates(printed) == data.coordinates(rep)


def test_weight_restricted_invariants():
    # the weight-(3,1,1) stratum of Q_9 holds no fixed classes; (3,3) holds one
    small = invariants(4, 9, "gl", omega=(3, 3))
    large = invariants(4, 9, "gl", omega=(3, 1, 1))
    assert {small.dim, large.dim} == {0, 1}
    assert small.dim + large.dim == invariants(4, 9, "gl").dim


def _combine(vectors, bits):
    return functools.reduce(xor, (vectors[i] for i in support(bits)), 0)


def _reference_joint_kernel(image_vectors, sources, dim):
    """The common kernel of the maps, each map's images ``dim`` bits apart."""
    stacked = [0] * sources
    for g, vectors in enumerate(image_vectors):
        for i, v in enumerate(vectors):
            stacked[i] |= v << (g * dim)
    return image_kernel(stacked)


def reference_invariants(q, n, group, omega=None):
    """(dim, vectors, basis_monomials, printed representatives) of the fixed
    classes, the subquotient projected one bit at a time by its padded weight."""
    data = span_for(q, n)
    images = plus_one_images(q, n, group)
    if omega is None:
        kernel = _reference_joint_kernel(images, data.dim, data.dim)
        reps = [data.from_coordinates(v) for v in kernel]
        return len(kernel), kernel, list(data.basis), _printed(reps)
    bound = padded_weight(trim_weight(omega), n)
    weights = [padded_weight(weight_vector(m), n) for m in data.basis]
    keep = [i for i, w in enumerate(weights) if w == bound]
    sub_index = {i: k for k, i in enumerate(keep)}
    image_vectors = []
    for g_images in images:
        vectors = []
        for i in keep:
            v = 0
            for p in support(g_images[i]):
                assert weights[p] <= bound
                if weights[p] == bound:
                    v |= 1 << sub_index[p]
            vectors.append(v)
        image_vectors.append(vectors)
    kernel = _reference_joint_kernel(image_vectors, len(keep), len(keep))
    sub_basis = [data.basis[i] for i in keep]
    reps = [Polynomial(q, [sub_basis[i] for i in support(v)]) for v in kernel]
    return len(kernel), kernel, sub_basis, _printed(reps)


def reference_kameko_kernel_invariants(q, n, group):
    km = cohit.kameko_matrix(q, n)
    image_vectors = [
        [_combine(g_images, kv) for kv in km.kernel]
        for g_images in plus_one_images(q, n, group)
    ]
    alphas = _reference_joint_kernel(image_vectors, len(km.kernel), km.domain.dim)
    vecs = [_combine(km.kernel, a) for a in alphas]
    reps = map(km.domain.from_coordinates, vecs)
    return len(alphas), vecs, list(km.domain.basis), _printed(reps)


def _printed(polynomials):
    """Each polynomial's monomials in the monomial order."""
    return [to_json(p)["monomials"] for p in polynomials]


def _fields(report):
    return (report.dim, report.vectors, report.basis_monomials,
            report.to_json()["representatives"])


MERGED_DEGREES = (
    [(q, n) for q in (1, 2, 3) for n in range(0, 16)]
    + [(4, n) for n in [*range(0, 24), 37, 45]]
)


def test_invariants_match_the_joint_kernel_reference():
    for q, n in MERGED_DEGREES:
        weights = {weight_vector(m) for m in span_for(q, n).basis}
        empty = next((w for w in weight_vectors(q, n) if w not in weights), (q + 1,))
        for group in ("sigma", "gl"):
            for omega in [None, *sorted(weights), empty]:
                got = invariants(q, n, group, omega=omega)
                assert _fields(got) == reference_invariants(q, n, group, omega), (
                    q, n, group, omega)
            if n >= q and (n - q) % 2 == 0:
                got = kameko_kernel_invariants(q, n, group)
                assert _fields(got) == reference_kameko_kernel_invariants(q, n, group)
    assert invariants(4, 9, "gl", omega=(3, 3, 0, 0)).omega == (3, 3)


def test_a_weight_leak_raises(monkeypatch):
    # the weight-(3,1,1) block of Q_9 lies below the (3,3) block
    span = span_for(4, 9)
    block = span.weight_block((3, 1, 1))
    assert 0 < len(block) and block.stop < span.dim
    images = plus_one_images(4, 9, "gl")
    leak = tuple(tuple(1 << block.stop for _ in g_images) for g_images in images)
    monkeypatch.setattr(glaction, "plus_one_images", lambda q, n, group: leak)
    with pytest.raises(WeightLeak, match="upward"):
        invariants(4, 9, "gl", omega=(3, 1, 1))
    # a bit below the block vanishes in the subquotient: every class is fixed
    top = span.weight_block((3, 3))
    low = tuple(tuple(1 << (top.start - 1) for _ in g_images) for g_images in images)
    monkeypatch.setattr(glaction, "plus_one_images", lambda q, n, group: low)
    assert invariants(4, 9, "gl", omega=(3, 3)).dim == len(top) == span.dim - block.stop


def test_gl_invariant_dims_from_the_fixture():
    for (q, n), dim in refdata.GL_INVARIANT_DIMS.items():
        assert invariants(q, n, "gl").dim == dim, (q, n)


def test_gl_invariant_dims_by_weight_at_45():
    for omega, dim in refdata.GL_INVARIANT_DIMS_BY_WEIGHT_45.items():
        assert invariants(4, 45, "gl", omega=omega).dim == dim, omega


def test_coinvariants_report_shape():
    data = coinvariants(3, 8, "gl")
    assert data is coinvariants(3, 8, "gl")
    assert data.q == 3 and data.n == 8
    reps = data.representatives()
    assert data.dim == len(reps)
    assert data.primitive_dim >= data.dim
    for rep in reps:
        assert is_annihilated(rep)
    js = data.to_json()
    assert js["dim"] == data.dim
    assert js["representatives"] == [to_json(rep)["terms"] for rep in reps]


SMALL_DEGREES = [(q, n) for q in (2, 3) for n in range(1, 13)]


def test_coinvariant_dims_match_invariant_dims():
    # the pairing between cohits and primitives is perfect and group-aware
    degrees = SMALL_DEGREES + [(4, n) for n in [*range(1, 23), 37, 45]]
    for q, n in degrees:
        for group in ("gl", "sigma"):
            inv = invariants(q, n, group).dim
            coinv = coinvariants(q, n, group).dim
            assert inv == coinv, f"q={q} n={n} {group}"


def divided_power_relations(q: int, n: int, group: str) -> EchelonForm:
    """Relation echelon built the divided-power way: act_dual on every primitive."""
    span = span_for(q, n)
    index = {span.position[m]: k for k, m in enumerate(span.basis)}
    gens = [transpose_images(g) for g in generator_images(q, group)]
    rows = []
    for v in span.primitive_vectors():
        theta = to_dual(span, v)
        for images in gens:
            moved = span._column_bits((act_dual(images, theta) ^ theta).terms)
            rows.append(from_support(index[p] for p in support(moved) if p in index))
    return echelonize(rows)


def test_relations_match_the_divided_power_action():
    for q, n in SMALL_DEGREES + [(4, 9), (4, 17), (4, 21), (4, 22)]:
        for group in ("gl", "sigma"):
            data = CoinvariantData(q, n, group)
            reference = divided_power_relations(q, n, group)
            assert set(data.relations.rows) == set(reference.rows), (q, n, group)
            # an identity index: both normal forms are the representatives
            index = {p: p for p in data.relations.free_columns(data.primitive_dim)}
            for k in range(data.primitive_dim):
                unit = 1 << k
                assert (data.relations.normal_form(unit, index)
                        == reference.normal_form(unit, index))


def test_coinvariants_never_build_the_primitive_basis(monkeypatch):
    def refuse(self, ncols):
        raise AssertionError("kernel_basis called")

    monkeypatch.setattr(EchelonForm, "kernel_basis", refuse)
    assert coinvariants(4, 45, "gl").dim == 1
    assert verdict(4, 22).isomorphism


def test_class_coordinates_on_the_degree_nine_generator():
    data = CoinvariantData(4, 9, "gl")
    assert data.dim == 1
    theta = DualElement(4, refdata.DUAL_GENERATOR_9)
    assert data.class_coordinates(theta) == 1
    # acting by any generator leaves the class unchanged
    for images in generator_images(4, "gl"):
        moved = act_dual(transpose_images(images), theta)
        assert data.class_coordinates(moved) == 1


def test_class_coordinates_reject_non_primitives():
    data = CoinvariantData(2, 2, "gl")
    with pytest.raises(ValueError, match="not annihilated"):
        data.class_coordinates(DualElement(2, [(2, 0)]))
    # at a pruned degree: a term on a pivot column, and one on a dropped column
    data = CoinvariantData(4, 37, "gl")
    span = data.span
    pivot = span.columns[max(span.echelon.rows)]
    dropped = next(m for m in enumerate_monomials(4, 37) if m not in span.position)
    for term in (pivot, dropped):
        with pytest.raises(ValueError, match="not annihilated by all positive squares"):
            data.class_coordinates(DualElement(4, [term]))


def test_representatives_have_unit_coordinates():
    data = CoinvariantData(3, 8, "gl")
    for k, rep in enumerate(data.representatives()):
        assert data.class_coordinates(rep) == 1 << k


def test_pairing_witnesses():
    for q, n, monomials, terms in refdata.PAIRING_WITNESSES:
        if n <= 17:
            f = Polynomial(q, monomials)
            theta = DualElement(q, terms)
            assert pairing(theta, f) == 1


def test_kameko_kernel_invariants_trivial_at_four():
    report = kameko_kernel_invariants(4, 4, "gl")
    assert report.dim == 0
    js = report.to_json()
    assert js["dim"] == 0


def test_kernel_invariants_see_the_full_kernel():
    # at n = 4 the kernel has dimension 20 and the fixture basis spans it
    from cohitlab.cohit import kameko_matrix
    from cohitlab.f2linalg import echelonize

    km = kameko_matrix(4, 4)
    kernel = km.kernel
    assert len(kernel) == len(refdata.KAMEKO_KERNEL_BASIS_4_4) == 20
    frozen = [
        km.domain.coordinates(Polynomial(4, [m]))
        for m in refdata.KAMEKO_KERNEL_BASIS_4_4
    ]
    ech = echelonize(kernel)
    assert all(ech.contains(v) for v in frozen)
    assert echelonize(frozen).rank == 20


def test_coinvariant_data_is_memoized_behind_the_column_budget(monkeypatch):
    # an empty memo around the same function; the tests after this keep theirs
    memo = functools.cache(coinvariants.__wrapped__)
    data = memo(4, 9, "gl")
    assert memo(4, 9, "gl") is data
    assert memo(4, 9, "sigma") is not data
    # an entry is made only after the budget check passed
    monkeypatch.setattr(cohit, "MAX_COLUMNS", 10)
    with pytest.raises(ResourceLimit, match="budget is 10"):
        memo(4, 10, "gl")
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 2)
