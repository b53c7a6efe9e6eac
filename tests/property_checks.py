"""Reusable whole-range property checks shared by the property and
acceptance test modules, and the references that they and the unit tests
compare the engine against.

Each function raises AssertionError on the first violation and returns a
small count of how many instances it examined, so callers can assert the
sweep was not vacuous.
"""

from __future__ import annotations

import random

from cohitlab import transferlab
from cohitlab.cohit import cohit_dim, span_for, weight_table
from cohitlab.f2linalg import echelonize, from_support, support
from cohitlab.lambda_algebra import (
    WIDTH,
    LambdaElement,
    Word,
    admissible_basis,
    differential,
    ext_dim,
    psi,
)
from cohitlab.polyspace import (
    DualElement,
    Monomial,
    Polynomial,
    enumerate_monomials,
    minimal_spike,
    monomial_key,
    padded_weight,
    pairing,
    weight_vector,
)
from cohitlab.steenrod import hit_span, is_annihilated, sq_dual_all


# -- references: the whole-element squares and the word rules that the engine
# computes term by term or packed ---------------------------------------------


def sq_monomial(t: int, mono: Monomial) -> list[Monomial]:
    """Terms of Sq^t on one exponent tuple (no cancellation occurs): the
    reference for the engine's Sq on packed words, ``steenrod._sq_word``."""
    if t < 0:
        raise ValueError("negative Steenrod square")
    if t == 0:
        return [mono]
    # (remaining degree, exponents so far); a d_i leaving more than the later
    # exponents can take is cut, and the last d_i is whatever remains
    partial: list[tuple[int, Monomial]] = [(t, ())]
    cap = sum(mono)
    for e in mono[:-1]:
        cap -= e
        partial = [
            (r - d, done + (e + d,))
            for r, done in partial
            for d in range(min(e, r) + 1)
            if d & e == d and r - cap <= d
        ]
    e = mono[-1]
    return [done + (e + r,) for r, done in partial if r & e == r]


def sq(t: int, f: Polynomial) -> Polynomial:
    """Left Steenrod square Sq^t on a homogeneous polynomial."""
    return f.map_terms(lambda m: sq_monomial(t, m))


def sq_dual(t: int, theta: DualElement) -> DualElement:
    """Right Steenrod action on a dual element."""
    if t < 0:
        raise ValueError("negative Steenrod square")
    return theta.map_terms(lambda term: [u for s, u in sq_dual_all(term) if s == t])


def is_admissible(word: Word) -> bool:
    """Whether every adjacent pair (a, b) of the word has a <= 2b."""
    it = iter(word)
    prev = next(it, 0)
    for j in it:
        if prev > 2 * j:
            return False
        prev = j
    return True


def pack(word: Word) -> int:
    """The word as ``lambda_algebra`` stores it: letter j as j + 1, leading lowest."""
    w = 0
    for j in reversed(word):
        w = (w << WIDTH) | (j + 1)
    return w


def sq0(el: LambdaElement) -> LambdaElement:
    """Sq^0 on the lambda algebra: every letter l_j becomes l_(2j + 1)."""
    return LambdaElement(tuple(2 * j + 1 for j in w) for w in el.terms)


def doubled(theta: DualElement) -> DualElement:
    """phi on divided powers: a^(j) becomes a^(2j + 1) in every variable, the
    dual of the halving map ``cohit.kameko_down_monomial``."""
    return theta.map_terms(lambda t: [tuple(2 * j + 1 for j in t)])


def to_dual(span, bits: int) -> DualElement:
    """The dual element whose terms are the span's columns at the set bits of
    a column vector: the reference for ``HitSpan.dual_terms``."""
    return DualElement(span.q, [span.columns[p] for p in support(bits)])


def to_json(element: Polynomial | DualElement) -> dict:
    """A polynomial or dual element as ``from_json`` reads it: q, the degree,
    and the terms as exponent lists in the monomial order."""
    key = "monomials" if isinstance(element, Polynomial) else "terms"
    return {"q": element.q, "degree": element.degree,
            key: [list(t) for t in element.sorted_terms()]}


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
                assert dd.is_zero(), (s, n, word)
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


def check_psi_commutes_with_sq0(elements: int, seed: int = 33) -> int:
    """psi(phi theta) equals Sq^0 psi(theta), after Adem reduction, on random
    dual elements, most of them not primitive."""
    rng = random.Random(seed)
    for _ in range(elements):
        q, n = rng.randint(1, 4), rng.randint(0, 20)
        monomials = enumerate_monomials(q, n)
        terms = rng.sample(monomials, min(len(monomials), rng.randint(1, 4)))
        theta = DualElement(q, terms)
        assert psi(doubled(theta)) == sq0(psi(theta)), theta
    return elements


def check_doubling_keeps_primitives(max_rank: int, max_degree: int) -> int:
    """phi maps every primitive of the hit spans in range to a primitive."""
    count = 0
    for q in range(1, max_rank + 1):
        for n in range(max_degree + 1):
            span = span_for(q, n)
            for v in span.primitive_vectors():
                assert is_annihilated(doubled(to_dual(span, v))), (q, n, v)
                count += 1
    return count


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
                assert span.coordinates(f) == 0, (n, m)
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
        assert [to_dual(pruned, v) for v in pruned.primitive_vectors()] == [
            to_dual(full, v) for v in full.primitive_vectors()
        ], where
        monomials = ordered_monomials(q, n)
        for _ in range(samples):
            picks = rng.sample(monomials, min(len(monomials), 3))
            picks += rng.sample(pruned.columns, min(pruned.ncols, 3))
            f = Polynomial(q, set(picks))
            nf = pruned.from_coordinates(pruned.coordinates(f))
            assert nf == full.from_coordinates(full.coordinates(f)), (where, f)
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
