"""Reusable whole-range property checks shared by the property and
acceptance test modules.

Each function raises AssertionError on the first violation and returns a
small count of how many instances it examined, so callers can assert the
sweep was not vacuous.
"""

from __future__ import annotations

import random

from cohitlab import transferlab
from cohitlab.cohit import cohit_dim, span_for, weight_table
from cohitlab.f2linalg import echelonize, from_support
from cohitlab.lambda_algebra import (
    LambdaElement,
    adem_reduce,
    admissible_basis,
    differential,
    ext_dim,
)
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
from cohitlab.steenrod import hit_span, sq, sq_dual, sq_monomial


def transpose_images(images: tuple) -> tuple:
    """The transposed substitution: x_j goes to the sum of the x_r whose
    image holds x_j."""
    rows: list[list[int]] = [[] for _ in images]
    for r, S in enumerate(images):
        for j in S:
            rows[j].append(r)
    return tuple(tuple(sorted(r)) for r in rows)


def ordered_monomials(q: int, n: int) -> list:
    """The degree-n monomials in q variables, ascending in the monomial order."""
    return sorted(enumerate_monomials(q, n), key=monomial_key)


def every_square_hit_rank(q: int, n: int) -> int:
    """Rank of the span of Sq^t(g) over every t >= 1, not only t = 2^i."""
    position = {m: i for i, m in enumerate(enumerate_monomials(q, n))}
    rows = [
        from_support(position[m] for m in sq_monomial(t, g))
        for t in range(1, n // 2 + 1)
        for g in enumerate_monomials(q, n - t)
    ]
    return echelonize(rows).rank


def check_differential_squares_to_zero(max_length: int, max_degree: int) -> int:
    """d(d(word)) reduces to zero for every admissible word in range."""
    count = 0
    for s in range(1, max_length + 1):
        for n in range(1, max_degree + 1):
            for word in admissible_basis(s, n):
                dd = differential(differential(LambdaElement([word])))
                assert adem_reduce(dd).is_zero(), (s, n, word)
                count += 1
    return count


def check_adjointness(pairs: int, seed: int = 2024) -> int:
    """<theta . Sq^t, f> equals <theta, Sq^t f> on random homogeneous pairs."""
    rng = random.Random(seed)
    done = 0
    while done < pairs:
        q = rng.randint(1, 4)
        t = rng.randint(1, 5)
        n = rng.randint(t + 1, t + 7)
        high = ordered_monomials(q, n)
        low = ordered_monomials(q, n - t)
        theta = DualElement(q, rng.sample(high, min(len(high), 3)))
        f = Polynomial(q, rng.sample(low, min(len(low), 3)))
        assert pairing(sq_dual(t, theta), f) == pairing(theta, sq(t, f)), (
            q,
            n,
            t,
        )
        done += 1
    return done


def check_primitives_match_cohit_dims(max_rank: int, max_degree: int) -> int:
    """The annihilated dual space has the same dimension as the quotient."""
    count = 0
    for q in range(1, max_rank + 1):
        for n in range(1, max_degree + 1):
            span = span_for(q, n)
            prims = span.primitive_vectors()
            assert len(prims) == span.ncols - span.rank, (q, n)
            count += 1
    return count


def check_spike_criterion_against_brute_force(q: int, max_degree: int) -> int:
    """Monomials of weight below the minimal spike are exactly hit, degreewise.

    The criterion prunes a monomial when its padded weight vector is
    lexicographically smaller than the minimal spike's; every pruned monomial
    must be hit, and in degrees where mu(n) <= q no admissible monomial may
    be pruned.  Both are checked on the unpruned span, where no monomial is
    dropped before it is tested.
    """
    checked = 0
    for n in range(1, max_degree + 1):
        spike = minimal_spike(q, n)
        span = hit_span(q, n, None)
        admissible = set(span.basis)
        if spike is None:
            continue
        bound = padded_weight(weight_vector(spike), n)
        for m in enumerate_monomials(q, n):
            if padded_weight(weight_vector(m), n) < bound:
                f = Polynomial(q, [m])
                assert span.echelon.contains(span.to_vector(f)), (n, m)
                assert m not in admissible
                checked += 1
    return checked


def check_pruned_span_matches_unpruned(
    max_rank: int,
    max_degree: int,
    extra: tuple[tuple[int, int], ...] = (),
    samples: int = 4,
    seed: int = 2024,
) -> int:
    """The minimal-spike span presents the same quotient as the unpruned one.

    Compares ``span_for`` with ``hit_span`` on admissible monomials (the
    weight table is counted from them), the primitive basis, and normal
    forms of random polynomials, drawn both from all monomials and from the
    columns that survive the prune.  Returns the number of degrees where the
    prune dropped columns.
    """
    rng = random.Random(seed)
    degrees = [
        (q, n) for q in range(1, max_rank + 1) for n in range(1, max_degree + 1)
    ]
    pruned_degrees = 0
    for q, n in degrees + list(extra):
        pruned = span_for(q, n)
        full = hit_span(q, n, None)
        where = (q, n)
        assert pruned.basis == full.basis, where
        assert [pruned.to_dual(v) for v in pruned.primitive_vectors()] == [
            full.to_dual(v) for v in full.primitive_vectors()
        ], where
        monomials = ordered_monomials(q, n)
        for _ in range(samples):
            picks = rng.sample(monomials, min(len(monomials), 3))
            picks += rng.sample(pruned.columns, min(pruned.ncols, 3))
            f = Polynomial(q, set(picks))
            assert pruned.normal_form(f) == full.normal_form(f), (where, f)
        pruned_degrees += pruned.ncols < full.ncols
    return pruned_degrees


def check_weight_dims_sum_to_cohit_dim(q: int, max_degree: int) -> int:
    count = 0
    for n in range(1, max_degree + 1):
        table = weight_table(q, n)
        assert sum(table.values()) == cohit_dim(q, n), n
        count += 1
    return count


def check_low_rank_transfer_is_iso(max_rank: int, max_degree: int) -> int:
    count = 0
    for q in range(1, max_rank + 1):
        for n in range(0, max_degree + 1):
            report = transferlab.verdict(q, n)
            assert report.isomorphism, (
                q,
                n,
                report.domain_dim,
                report.codomain_dim,
                report.rank,
            )
            count += 1
    return count


def check_length_one_homology(max_degree: int) -> int:
    for n in range(1, max_degree + 1):
        expected = 1 if (n + 1) & n == 0 else 0
        assert ext_dim(1, n) == expected, n
    return max_degree


def check_length_two_homology_census(max_degree: int) -> int:
    """Nonzero exactly at n = 2^i + 2^j - 2, i <= j, j != i + 1, each dim 1."""
    census = {}
    for i in range(0, max_degree.bit_length() + 1):
        for j in range(i, max_degree.bit_length() + 1):
            if j == i + 1:
                continue
            n = 2**i + 2**j - 2
            if 1 <= n <= max_degree:
                census[n] = census.get(n, 0) + 1
    for n in range(1, max_degree + 1):
        assert ext_dim(2, n) == census.get(n, 0), n
    return max_degree
