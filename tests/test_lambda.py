from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import property_checks as pc
from cohitlab import f2linalg, lambda_algebra, refdata
from cohitlab.lambda_algebra import (
    LambdaElement,
    RewriteBudget,
    adem_pair,
    adem_reduce,
    admissible_basis,
    admissible_count,
    classes_equal,
    differential,
    ext_dim,
    homology_coordinates,
    is_cycle,
    psi,
)
from cohitlab.cohit import span_for
from cohitlab.glaction import coinvariants
from cohitlab.polyspace import DualElement, enumerate_monomials
from cohitlab.steenrod import _submasks, is_annihilated, sq_dual_all


def element(s: int, n: int, bits: int) -> LambdaElement:
    """The element with coordinates ``bits`` over the admissible words of
    (length s, degree n)."""
    words = lambda_algebra._admissible_words(s, n)
    return LambdaElement._trusted(frozenset(words[p] for p in f2linalg.support(bits)))


def homology_basis(s: int, n: int) -> list[LambdaElement]:
    """The cycles the homology memo keeps at (length s, degree n), as elements."""
    return [element(s, n, v) for v in lambda_algebra._homology(s, n)[1]]


def test_admissibility_is_the_doubling_condition():
    assert pc.is_admissible(())
    assert pc.is_admissible((5,))
    assert pc.is_admissible((2, 1))  # 2 <= 2*1
    assert not pc.is_admissible((3, 1))  # 3 > 2
    assert pc.is_admissible((1, 3, 3, 2))
    assert not pc.is_admissible((1, 3, 4, 1))
    assert not pc.is_admissible((0, 0, 1, 0))


def test_adem_pair_fixture_cases():
    for (a, b), words in refdata.ADEM_PAIR_CASES.items():
        assert adem_pair(a, b) == frozenset(words), (a, b)


def test_adem_pair_equals_its_binomial_sum():
    pairs = [(a, b) for a in range(200) for b in range((a + 1) // 2)]
    assert len(pairs) == 10_000
    for a, b in pairs:
        assert adem_pair(a, b) == pc.adem_pair_reference(a, b), (a, b)


def test_adem_pair_preserves_degree_and_admissibility():
    for a in range(3, 12):
        for b in range(0, (a - 1) // 2 + 1):
            for u, v in adem_pair(a, b):
                assert u + v == a + b
                assert u <= 2 * v


def test_adem_reduce_is_idempotent_and_degreewise():
    # the constructor reduces; adem_reduce is the identity on its elements
    red = LambdaElement([(3, 1, 2), (5, 0, 1)])
    assert adem_reduce(red) is red
    assert red.bidegree == (3, 6)
    assert red.terms == reference_reduce({(3, 1, 2), (5, 0, 1)})
    for w in red.terms:
        assert pc.is_admissible(w)


def test_bidegree_is_the_length_and_index_sum_of_the_words():
    assert LambdaElement([(1, 3, 3, 2)]).bidegree == (4, 9)
    assert LambdaElement([()]).bidegree == (0, 0)  # the empty word
    assert LambdaElement().bidegree is None
    assert LambdaElement([(5, 2)]).bidegree is None  # l5 l2 = 0


def test_reduction_kills_known_zero():
    # l5 l2 and l3 l1 rewrite to 0, so == is equality in the algebra
    assert LambdaElement([(5, 2)]).is_zero()
    assert LambdaElement([(3, 1)]).is_zero()
    assert LambdaElement([(3, 1)]) == LambdaElement()
    assert len(LambdaElement([(3, 1)])) == 0 and repr(LambdaElement([(3, 1)])) == "0"


def test_differential_of_generators():
    # d(lambda_m) = sum_{j>=1} C(m-j, j) lambda_{j-1} lambda_{m-j}
    assert differential(LambdaElement([(2,)])) == LambdaElement([(0, 1)])
    assert differential(LambdaElement([(1,)])).is_zero()
    assert differential(LambdaElement([(3,)])).is_zero()
    # m = 4: C(3,1) and C(2,2) are odd
    assert differential(LambdaElement([(4,)])) == LambdaElement([(0, 3), (1, 2)])
    # m = 5: only C(3,2) is odd
    assert differential(LambdaElement([(5,)])) == LambdaElement([(1, 3)])
    # m = 6: C(5,1) and C(3,3) are odd
    assert differential(LambdaElement([(6,)])) == LambdaElement([(0, 5), (2, 3)])


def test_d_generator_equals_its_binomial_sum():
    for m in range(lambda_algebra.MAX_LETTER + 1):
        want = {pc.pack(w) for w in pc.d_generator_reference(m)}
        assert lambda_algebra._d_generator(m) == want, m


def test_differential_squares_to_zero_small():
    for s, n in ((1, 9), (2, 9), (3, 10), (4, 12)):
        for w in admissible_basis(s, n):
            dd = differential(differential(LambdaElement([w])))
            assert dd.is_zero(), w


def test_admissible_basis_enumerates_admissibles():
    words = admissible_basis(2, 6)
    assert all(pc.is_admissible(w) and sum(w) == 6 for w in words)
    assert len(set(words)) == len(words)
    # independent recount by brute force
    brute = [
        (a, b)
        for a in range(7)
        for b in range(7)
        if a + b == 6 and a <= 2 * b
    ]
    assert sorted(words) == sorted(brute)


def test_admissible_basis_matches_brute_force_with_the_feasibility_cut():
    def compositions(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for s in range(6):
        for n in range(31):
            brute = sorted(w for w in compositions(n, s) if pc.is_admissible(w))
            assert list(admissible_basis(s, n)) == brute, (s, n)
            # the memoized words are the same words packed, in this order
            want = tuple(map(pc.pack, brute))
            assert lambda_algebra._admissible_words(s, n) == want, (s, n)
            # and the coordinate index is a dict over exactly those words,
            # each mapped to its position
            index = lambda_algebra._coords(s, n)
            assert type(index) is dict, (s, n)
            assert index == {w: i for i, w in enumerate(want)}, (s, n)


def test_admissible_count_is_the_basis_size():
    for s in range(6):
        for n in range(41):
            size = len(admissible_basis(s, n))
            assert admissible_count(s, n, size) == size, (s, n)
            if size:
                # past the cap the count stops early, somewhere above it
                assert admissible_count(s, n, size - 1) > size - 1, (s, n)
    # frozen counts of bidegrees too large to list, up to just under the
    # budget...
    cap = 2**21
    for (s, n), size in {(4, 129): 76_135, (5, 128): 1_267_413, (4, 393): 2_086_965,
                         (5, 145): 2_068_380, (6, 83): 2_089_091}.items():
        assert admissible_count(s, n, cap) == size, (s, n)
    # ... one degree above it, and under a cap no count reaches
    for s, n in ((4, 394), (5, 146), (6, 84)):
        assert admissible_count(s, n, cap) > cap, (s, n)
    assert admissible_count(5, 199, 10**12) == 7_203_464  # the README's figure
    assert admissible_count(5, 164, 10**12) == 3_358_228
    # a word longer than its index sum only adds leading zeros, and long
    # words are counted with no recursion
    for s, n in ((7, 5), (41, 40), (50, 12)):
        assert admissible_count(s, n, cap) == admissible_count(n, n, cap), (s, n)
    assert admissible_count(600, 600, cap) > cap


def test_ext_dim_length_one_is_the_doubling_family():
    for n in range(1, 21):
        expected = 1 if (n + 1) & n == 0 else 0
        assert ext_dim(1, n) == expected


def test_ext_dim_length_two_census_small():
    # nonzero exactly at n = 2^i + 2^j - 2 with j = 0 or j >= i + 2 (i <= j)
    hits = sorted(
        2**i + 2**j - 2
        for i in range(0, 6)
        for j in range(i, 6)
        if i == j or j >= i + 2
        if 2**i + 2**j - 2 <= 20
    )
    for n in range(1, 21):
        assert ext_dim(2, n) == hits.count(n), f"n={n}"


@pytest.fixture
def fresh_lambda_caches():
    lambda_algebra.clear_caches()
    yield
    lambda_algebra.clear_caches()


def test_ext_tables_from_fresh_caches(fresh_lambda_caches):
    for (s, n), dim in sorted(refdata.EXT_DIMS.items()):
        if n > 37:
            continue
        assert ext_dim(s, n) == dim, (s, n)
        basis = homology_basis(s, n)
        assert len(basis) == dim
        assert all(is_cycle(el) for el in basis)


def test_rewrite_budget_is_per_reduction(fresh_lambda_caches, monkeypatch):
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 4)
    # the constructor reduces: each needs at most 4 left products (l13 l5 l1:
    # l5 l1, the deep l13 l3 l3, then l9 l3 and l7 l3); together they need 7,
    # as every left product counts on every use
    for w in ((9, 3, 1), (13, 5, 1), (3, 1), (5, 1)):
        reduced = LambdaElement([w])
        assert all(pc.is_admissible(v) for v in reduced.terms)
    with pytest.raises(RewriteBudget):
        LambdaElement([(15, 6, 1)])  # needs 6


def reference_reduce(words) -> frozenset:
    """Rewrite the leftmost inadmissible pair of some word until none is left.

    No memo and no shortcut: the plain rewriting the engine must agree with.
    """
    current = set(words)
    while True:
        word = next((w for w in current if not pc.is_admissible(w)), None)
        if word is None:
            return frozenset(current)
        current.remove(word)
        i = next(i for i in range(len(word) - 1) if word[i] > 2 * word[i + 1])
        for pair in adem_pair(word[i], word[i + 1]):
            current ^= {word[:i] + pair + word[i + 2 :]}


def reference_derivation(word) -> set:
    """d(word) by the Leibniz rule, with d(l_m) from the binomials, unreduced."""
    out: set = set()
    for i, m in enumerate(word):
        for j in range(1, m + 1):
            if comb(m - j, j) % 2:
                out ^= {word[:i] + (j - 1, m - j) + word[i + 1 :]}
    return out


def random_composition(rng, s: int, n: int) -> tuple:
    """A uniformly cut word of length s and index sum n, admissible or not."""
    cuts = sorted(rng.randint(0, n) for _ in range(s - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


def test_adem_reduce_matches_the_reference_rewriting(fresh_lambda_caches):
    rng = random.Random(5)
    for _ in range(400):
        s, n = rng.randint(1, 4), rng.randint(0, 24)
        words = {random_composition(rng, s, n) for _ in range(rng.randint(1, 3))}
        got = LambdaElement(words)
        assert got.terms == reference_reduce(words), words
        assert adem_reduce(got) is got


# length-4 words up to this degree keep the check under a second
LENGTH_4_TOP = 28


def test_differential_matches_the_reference_derivation(fresh_lambda_caches):
    for s, top in ((1, 20), (2, 20), (3, 20), (4, LENGTH_4_TOP)):
        for n in range(top + 1):
            for w in admissible_basis(s, n):
                want = reference_reduce(reference_derivation(w))
                assert differential(LambdaElement([w])).terms == want, w


def test_differential_of_inadmissible_words_matches_the_reference(
    fresh_lambda_caches,
):
    rng = random.Random(11)
    for _ in range(400):
        s, n = rng.randint(1, 4), rng.randint(0, 24)
        words = {random_composition(rng, s, n) for _ in range(rng.randint(1, 3))}
        expansion: set = set()
        for w in words:
            expansion ^= reference_derivation(w)
        want = reference_reduce(expansion)
        assert differential(LambdaElement(words)).terms == want, words


def test_grouped_differential_matches_the_per_word_reference(
    fresh_lambda_caches,
):
    # d groups the words of an element by their leading index; sums whose
    # words share leading indices must still give the per-word XOR
    rng = random.Random(17)
    elements = []
    for s, top in ((3, 18), (4, 16)):
        for n in range(top + 1):
            for w in admissible_basis(s, n):
                image = differential(LambdaElement([w])).sorted_words()
                if len(image) > 1:  # length s + 1, shared leading indices
                    elements.append(rng.sample(image, rng.randint(2, len(image))))
    for _ in range(150):
        s, n = rng.randint(1, 4), rng.randint(0, 26)
        basis = admissible_basis(s, n)
        if len(basis) > 1:
            elements.append(rng.sample(basis, rng.randint(2, min(len(basis), 8))))
    shared = 0
    for words in elements:
        shared += len({w[0] for w in words}) < len(words)
        want: set = set()
        for w in words:
            want ^= reference_reduce(reference_derivation(w))
        assert differential(LambdaElement(words)).terms == want, words
    assert shared > 100


def test_d_memo_holds_tails_only(fresh_lambda_caches):
    # the words of an element are differentiated once and not memoized: after
    # d(d(w)) over every length-4 word w, the memo holds no length-5 word
    pc.check_differential_squares_to_zero(4, 30)
    lengths = {-(-u.bit_length() // lambda_algebra.WIDTH) for u in lambda_algebra._D}
    assert lengths == {1, 2, 3, 4}
    # a tail's d is stored as a tuple
    assert all(type(d) is tuple for d in lambda_algebra._D.values())


def test_differential_reads_a_memoized_word_and_stores_no_new_one(
    fresh_lambda_caches, monkeypatch,
):
    pack, memo = pc.pack, lambda_algebra._D
    words = [w for s in range(1, 5) for n in range(25) for w in admissible_basis(s, n)]
    fresh = {}
    for w in words:
        memo.clear()
        fresh[w] = differential(LambdaElement([w]))
        assert pack(w) not in memo, w
    derived = []
    real = lambda_algebra._d_grouped
    monkeypatch.setattr(lambda_algebra, "_d_grouped",
                        lambda tails: derived.append(tails) or real(tails))
    # (2, 1) and (1,) become memoized tails; (3, 2, 1) is absent but needs
    # only them, so its d is derived once and nothing is stored
    memo.clear()
    differential(LambdaElement([(4, 2, 1)]))
    assert set(memo) == {pack((2, 1)), pack((1,))}
    derived.clear()
    assert differential(LambdaElement([(3, 2, 1)])) == fresh[(3, 2, 1)]
    assert len(derived) == 1 and len(memo) == 2
    # a word memoized as a tail is read, not derived again
    for w in words:
        memo[pack(w)]
    derived.clear()
    for w in words:
        assert differential(LambdaElement([w])) == fresh[w], w
    assert not derived


def test_left_product_matches_the_reference_rewriting(fresh_lambda_caches):
    # shallow and deep products alike: l6 l0 l0 rewrites to l3 (l1 l2) among
    # others, and l3 l1 rewrites again on the leading index, which d does
    # not reach at small degree
    for s in range(1, 4):
        for n in range(13):
            for u in admissible_basis(s, n):
                for a in range(2 * u[0] + 1, 2 * u[0] + 9):
                    got = lambda_algebra._times(a, (pc.pack(u),), set())
                    want = reference_reduce({(a,) + u})
                    assert set(map(lambda_algebra._unpack, got)) == want, (a, u)


def test_pair_terms_are_packed_and_deep_products_recurse_through_them(
    fresh_lambda_caches,
):
    pack = pc.pack

    def times(word):
        got = lambda_algebra._times(word[0], (pack(word[1:]),), set())
        return set(map(lambda_algebra._unpack, got))

    # a shallow product is written from its pair's Adem terms, held packed:
    # l4 l1 = l3 l2 (n = a - 2b - 1 = 1 leaves the one term j = 0), l3 l1 = 0,
    # l6 l1 = l3 l4 + l4 l3
    assert lambda_algebra._P[pack((4, 1))][0] == (pack((3, 2)),)
    assert lambda_algebra._P[pack((3, 1))][0] == ()
    assert set(lambda_algebra._P[pack((6, 1))][0]) == {pack((3, 4)), pack((4, 3))}
    # a deep product rewrites l_q r again: l3 l0 = l1 l2, and l2 l0 = l1 l1,
    # so l3 l0 l0 = l1 l1 l1; l2 l0 l0 = 0 and l4 l0 l0 = l2 l1 l1 + l1 l1 l2
    assert times((3, 0, 0)) == {(1, 1, 1)}
    assert times((2, 0, 0)) == set()
    assert times((4, 0, 0)) == {(2, 1, 1), (1, 1, 2)}


def test_the_dict_memos_are_the_pair_terms_and_the_tail_differentials(
    fresh_lambda_caches,
):
    # no left product is stored: after the d^2 sweep, the module's dict
    # memos are the Adem pair table and the tail differentials
    pc.check_differential_squares_to_zero(4, 30)
    memos = {name for name, memo in vars(lambda_algebra).items()
             if isinstance(memo, dict)
             and type(memo).__module__ == lambda_algebra.__name__}
    assert memos == {"_P", "_D"}
    assert lambda_algebra._P and lambda_algebra._D


def test_a_shallow_product_counts_on_every_use(fresh_lambda_caches, monkeypatch):
    # l3 l1 = 0 is shallow: it is computed, and charged, on every use
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 1)
    assert LambdaElement([(3, 1)]).is_zero()
    assert lambda_algebra._rewrite_count == 1
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 0)
    with pytest.raises(RewriteBudget):
        LambdaElement([(3, 1)])


def test_a_deep_product_counts_on_every_use(fresh_lambda_caches, monkeypatch):
    # l3 l0 l0 is deep: l3 l0 = l1 l2 leaves l2 l0 = l1 l1 to rewrite, two
    # left products, both computed and charged again when it is built again
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 2)
    for _ in range(2):
        assert LambdaElement([(3, 0, 0)]).terms == {(1, 1, 1)}
        assert lambda_algebra._rewrite_count == 2
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 1)
    with pytest.raises(RewriteBudget):
        LambdaElement([(3, 0, 0)])


def test_differential_raises_rewrite_budget(fresh_lambda_caches, monkeypatch):
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", 3)
    # counted on every use, d(l4 l2 l1) needs 2 left products and
    # d(l8 l8 l8 l8) needs 16
    got = differential(LambdaElement([(4, 2, 1)]))
    assert got.terms == reference_reduce(reference_derivation((4, 2, 1)))
    with pytest.raises(RewriteBudget):
        differential(LambdaElement([(8, 8, 8, 8)]))


def test_clear_caches_empties_every_lambda_memo():
    ext_dim(4, 9)
    psi(DualElement(4, refdata.DUAL_GENERATOR_9))

    def size(memo) -> int:
        return len(memo) if isinstance(memo, dict) else memo.cache_info().currsize

    # the functools caches and the dict memos the module defines
    memos = {
        name: memo
        for name, memo in vars(lambda_algebra).items()
        if (hasattr(memo, "cache_info") or isinstance(memo, dict))
        and getattr(memo, "__module__", None) == lambda_algebra.__name__
    }
    assert {"_D", "_P", "_coords", "_homology"} <= set(memos)
    assert size(memos["_P"]) > 0
    assert size(memos["_D"]) > 0
    lambda_algebra.clear_caches()
    sizes = {name: size(memo) for name, memo in memos.items()}
    assert sizes == dict.fromkeys(memos, 0)


def test_ext_class_names_name_exactly_the_nonzero_classes():
    ext = {**refdata.EXT_DIMS, **refdata.EXT_DIMS_STRETCH}
    assert set(refdata.EXT_CLASS_NAMES) == {b for b, dim in ext.items() if dim}


def test_ext_dim_known_classes():
    assert ext_dim(3, 8) == 1
    assert ext_dim(4, 9) == 1
    # a negative length or degree has no words: Ext is zero there
    assert ext_dim(-1, 5) == ext_dim(-2, 0) == ext_dim(1, -1) == 0
    assert homology_basis(-1, 5) == []
    # Ext^0 is spanned by the empty word at degree 0 alone
    assert homology_basis(0, 0) == [LambdaElement([()])]
    assert homology_basis(0, 3) == []


def test_homology_basis_members_are_independent_cycles():
    basis = homology_basis(4, 9)
    assert len(basis) == 1
    (h,) = basis
    assert is_cycle(h)
    assert not h.is_zero()


def reference_rank(s: int, n: int) -> int:
    """Rank of d from (length s, degree n), eliminated here from the words."""
    index = {w: i for i, w in enumerate(admissible_basis(s + 1, n - 1))}
    pivots: dict[int, int] = {}
    for word in admissible_basis(s, n):
        v = 0
        for w in differential(LambdaElement([word])).terms:
            v ^= 1 << index[w]
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def test_homology_matches_kernel_minus_boundary_rank():
    for s in range(5):
        for n in range(31):
            kernel = len(admissible_basis(s, n)) - reference_rank(s, n)
            assert ext_dim(s, n) == kernel - reference_rank(s - 1, n + 1), (s, n)
            basis = homology_basis(s, n)
            assert len(basis) == ext_dim(s, n)
            for k, h in enumerate(basis):
                assert is_cycle(h)
                assert homology_coordinates(h, s, n) == 1 << k, (s, n, k)


def test_homology_memo_keeps_rows_of_its_own_bidegree_only(fresh_lambda_caches):
    ext_dim(4, 37)
    assert lambda_algebra._homology.cache_info().currsize == 1
    # indexed: the targets (4, 37) and (5, 36) of its two maps, not the
    # boundary source (3, 38), whose words are only read
    assert lambda_algebra._coords.cache_info().currsize == 2
    boundaries, cycles = lambda_algebra._homology(4, 37)
    width = len(lambda_algebra._coords(4, 37))
    # a row of d's image echelon at (4, 37) would be this wide
    assert len(lambda_algebra._coords(5, 36)) > width
    for row in cycles:
        assert row.bit_length() <= width
    # the stored rows carry their tags in the len(cycles) lowest columns
    for row in boundaries.rows.values():
        assert row.bit_length() <= width + len(cycles)


def boundary_space(s: int, n: int) -> list[LambdaElement]:
    """A basis of the boundaries inside (length s, degree n): the echelon's
    rows whose tag, their ``len(cycles)`` lowest bits, is zero, since the
    tagged rows are the cycles kept."""
    ech, cycles = lambda_algebra._homology(s, n)
    t = len(cycles)
    return [element(s, n, row >> t) for _, row in sorted(ech.rows.items())
            if not row & (1 << t) - 1]


def test_boundary_space_consists_of_cycles():
    for b in boundary_space(3, 8):
        assert is_cycle(b)


def test_homology_coordinates_cases():
    assert homology_coordinates(LambdaElement(), 4, 9) == 0
    h19 = LambdaElement([(1, 3, 3, 2)])
    assert homology_coordinates(h19, 4, 9) == 1
    # a boundary has zero coordinates
    (b,) = boundary_space(4, 9)[:1] or [None]
    if b is not None and not b.is_zero():
        assert homology_coordinates(b, 4, 9) == 0


def test_homology_coordinates_reject_non_cycles():
    word = next(
        w for w in admissible_basis(2, 6)
        if not differential(LambdaElement([w])).is_zero()
    )
    with pytest.raises(ValueError, match="not a cycle"):
        homology_coordinates(LambdaElement([word]), 2, 6)
    with pytest.raises(ValueError):
        homology_coordinates(LambdaElement([(1, 3, 3, 2)]), 4, 10)


def test_memoized_homology_answers_without_a_new_echelon(monkeypatch):
    h9, h17 = LambdaElement([(1, 3, 3, 2)]), homology_basis(4, 17)
    b = boundary_space(4, 9)[0]  # both bidegrees are memoized from here on

    def refuse(self):
        raise AssertionError("an echelon was built")

    monkeypatch.setattr(f2linalg.EchelonForm, "__init__", refuse)
    assert homology_coordinates(h9, 4, 9) == 1
    assert homology_coordinates(h9 ^ b, 4, 9) == 1
    assert homology_coordinates(b, 4, 9) == 0
    for k, h in enumerate(h17):
        assert homology_coordinates(h, 4, 17) == 1 << k
    assert classes_equal(h9, h9 ^ b)
    assert not classes_equal(h9, b)
    assert not classes_equal(h17[0], LambdaElement())


def test_classes_equal_is_an_equivalence_modulo_boundaries():
    e = LambdaElement([(1, 3, 3, 2)])
    assert classes_equal(e, e)
    for b in boundary_space(4, 9)[:3]:
        assert classes_equal(e, e ^ b)
    assert not classes_equal(e, LambdaElement())


def test_classes_equal_differentiates_each_side_once(monkeypatch):
    # the sum of two cycles is one: only x and y are differentiated
    e = LambdaElement([(1, 3, 3, 2)])
    b = boundary_space(4, 9)[0]
    calls = []
    differential = lambda_algebra.differential
    monkeypatch.setattr(lambda_algebra, "differential",
                        lambda el: calls.append(el) or differential(el))
    for y, same in ((e ^ b, True), (b, False), (e, True)):
        calls.clear()
        assert classes_equal(e, y) is same
        assert len(calls) == 2
    with pytest.raises(ValueError, match="^element is not a cycle$"):
        classes_equal(e, LambdaElement([(0, 0, 0, 9)]))
    # both sides are read at the nonzero one's bidegree
    with pytest.raises(ValueError, match="expected \\(4, 9\\)$"):
        classes_equal(e, LambdaElement([(1, 3, 3, 3)]))


def test_every_homology_call_is_admitted_where_the_maps_are_built(
    fresh_lambda_caches, monkeypatch,
):
    # the budgets live in _homology, so all three calls refuse where ext_dim
    # does, and none builds a basis first
    def no_basis(s, n):
        raise AssertionError("a basis was built")

    h9 = LambdaElement([(1, 3, 3, 2)])
    with monkeypatch.context() as patch:
        patch.setattr(lambda_algebra.cohit, "MAX_COLUMNS", 10)
        patch.setattr(lambda_algebra, "_admissible_words", no_basis)
        for call in (lambda: ext_dim(4, 9), lambda: homology_coordinates(h9, 4, 9),
                     lambda: classes_equal(h9, LambdaElement())):
            with pytest.raises(lambda_algebra.cohit.ResourceLimit,
                               match="^length 4 and degree 9 have more admissible "
                                     "words than the budget of 10$"):
                call()
        with pytest.raises(lambda_algebra.cohit.ResourceLimit, match="above the cap"):
            homology_coordinates(LambdaElement(), 2, 1022)
    assert lambda_algebra._homology.cache_info().currsize == 0
    assert homology_coordinates(h9, 4, 9) == 1
    # a shape with no letter, or of negative degree, has at most one word
    # and is never counted: count_monomials(0, 0) would raise
    assert homology_coordinates(LambdaElement([()]), 0, 0) == 1
    assert homology_coordinates(LambdaElement(), -1, 5) == 0


def test_homology_queries_admit_before_they_differentiate():
    # d of a 400-letter word recurses past the interpreter's limit: the two
    # queries that check their input is a cycle refuse as ext_dim does
    # before they take d, on either side of classes_equal
    long = LambdaElement([(1,) * 400])
    message = "^words of length 401 recurse deeper than the limit of [0-9]+ frames$"
    for call in (lambda: ext_dim(400, 400),
                 lambda: homology_coordinates(long, 400, 400),
                 lambda: classes_equal(long, LambdaElement()),
                 lambda: classes_equal(LambdaElement(), long)):
        with pytest.raises(lambda_algebra.cohit.ResourceLimit, match=message):
            call()


def test_a_cycle_escaping_the_homology_echelon_raises(monkeypatch):
    # an echelon that lost its cycles: the class cannot be read, not "different"
    h9 = LambdaElement([(1, 3, 3, 2)])
    monkeypatch.setattr(lambda_algebra, "_homology",
                        lambda s, n: (f2linalg.EchelonForm(), ()))
    for check in (lambda: homology_coordinates(h9, 4, 9),
                  lambda: classes_equal(h9, LambdaElement())):
        with pytest.raises(RuntimeError, match="escaped"):
            check()


def test_more_cycles_than_dim_ext_raise(fresh_lambda_caches, monkeypatch):
    # a "boundary" that is no cycle (d∘d != 0): three words, two cycles, one
    # boundary, so t = 1, and both cycles survive it; the second one's tag
    # would land in a coordinate column
    images = {(3, 9): [0b001], (4, 8): [0b001, 0, 0]}
    monkeypatch.setattr(lambda_algebra, "_images", lambda s, n: iter(images[s, n]))
    with pytest.raises(RuntimeError, match="d∘d is not zero"):
        lambda_algebra._homology(4, 8)


def test_psi_in_one_variable_is_the_generator_map():
    for j in (0, 1, 5):
        assert psi(DualElement(1, [(j,)])) == LambdaElement([(j,)])


def test_psi_in_two_variables_small_case():
    # peel the first divided power, then send the remainder through rank one
    got = psi(DualElement(2, [(1, 2)]))
    assert got == LambdaElement([(1, 2), (2, 1)])


def test_psi_is_additive():
    a = DualElement(2, [(1, 2)])
    b = DualElement(2, [(3, 0)])
    assert psi(a ^ b) == psi(a) ^ psi(b)


def reference_psi(theta: DualElement) -> LambdaElement:
    """psi term by term: each term expanded into words, cancelled at the end.

    psi(a_1^(j_1) rest) is the sum of l_(j_1 + t) psi(sub) over the terms
    (t, sub) of rest Sq^t, with psi(a^(j)) = l_j.
    """

    def words(term: tuple) -> set:
        if len(term) == 1:
            return {term}
        out: set = set()
        for t, sub in sq_dual_all(term[1:]):
            for w in words(sub):
                out ^= {(term[0] + t,) + w}
        return out

    acc: set = set()
    for term in theta.terms:
        acc ^= words(term)
    return LambdaElement(acc)


def random_annihilated_dual(rng, q: int, n: int) -> DualElement:
    span = span_for(q, n)
    prims = span.primitive_vectors()
    bits = 0
    for v in rng.sample(prims, min(len(prims), rng.randint(1, 3))):
        bits ^= v
    return pc.to_dual(span, bits)


def test_psi_matches_the_term_by_term_reference(fresh_lambda_caches):
    rng = random.Random(23)
    duals = []
    for annihilated in (False, True) * 40:
        q, n = rng.randint(1, 4), rng.randint(1, 30)
        if annihilated:
            theta = random_annihilated_dual(rng, q, n)
            assert is_annihilated(theta)
        else:
            monomials = enumerate_monomials(q, n)
            theta = DualElement(q, rng.sample(monomials, min(len(monomials), 12)))
        duals.append(theta)
    for table in (refdata.PSI_IMAGES, refdata.PSI_IMAGES_STRETCH):
        duals += [DualElement(q, dual) for (q, _), (dual, _) in table.items()]
    duals.append(DualElement(4, refdata.DUAL_GENERATOR_17))
    duals += [DualElement(4, [term]) for term in refdata.PSI_RAW_TERM_IMAGES_9]
    for theta in duals:
        assert psi(theta) == reference_psi(theta), theta


def test_psi_of_a_primitive_reads_only_first_exponents_two_to_the_i_minus_one(
        fresh_lambda_caches):
    rng = random.Random(35)
    thetas = []
    for q, n in ((4, 9), (4, 17), (4, 22), (4, 45), (3, 19)):
        reps = coinvariants(q, n, "gl").representatives()
        assert reps, (q, n)
        thetas += reps
    thetas += [random_annihilated_dual(rng, rng.randint(1, 4), rng.randint(1, 30))
               for _ in range(40)]
    for theta in thetas:
        want = lambda_algebra._psi_words(theta.q, theta.terms)
        assert psi(theta, primitive=True)._words == want, theta


def test_only_buckets_two_to_the_i_minus_one_survive_on_a_primitive():
    # Bucket k of psi on a primitive is c_k theta_k, c_k the sum mod 2 of the
    # y_m with y_k = 1, y_m = sum_(j > m) C(m, j - m) y_j (see
    # _primitive_psi_words); bit j of each mask is C(m, j - m) mod 2, j > m.
    masks = [f2linalg.from_support(m + a for a in _submasks(m)[1:])
             for m in range(lambda_algebra.MAX_LETTER + 1)]
    for k in range(lambda_algebra.MAX_LETTER + 1):
        y = 1 << k
        for m in range(k - 1, -1, -1):
            if (y & masks[m]).bit_count() & 1:
                y |= 1 << m
        assert y.bit_count() & 1 == ((k + 1) & k == 0), k


def test_psi_reduces_as_it_recurses(monkeypatch):
    def refuse(*args):
        raise AssertionError("psi made a second reduction pass")

    monkeypatch.setattr(lambda_algebra, "_reduce", refuse)
    got = psi(DualElement(4, refdata.DUAL_GENERATOR_9))
    assert got.terms == frozenset(refdata.PSI_IMAGES[(4, 9)][1])


def test_psi_has_a_rewrite_budget_of_its_own(fresh_lambda_caches, monkeypatch):
    theta = DualElement(4, refdata.DUAL_GENERATOR_17)
    want = psi(theta).terms
    needed = lambda_algebra._rewrite_count
    assert needed > 0
    lambda_algebra.clear_caches()
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", needed - 1)
    with pytest.raises(RewriteBudget):
        psi(theta)
    lambda_algebra.clear_caches()
    monkeypatch.setattr(lambda_algebra, "MAX_REWRITES", needed)
    # a count left by an earlier call does not carry over
    monkeypatch.setattr(lambda_algebra, "_rewrite_count", needed)
    assert psi(theta).terms == want


def test_psi_stretch_images_from_the_fixture():
    for (q, _), (dual, image) in refdata.PSI_IMAGES_STRETCH.items():
        got = psi(DualElement(q, dual))
        assert got == LambdaElement(image), dual
        assert is_cycle(got)


def test_psi_images_no_suite_reads():
    # the suites remark26 and dlc3 own the images at (4, 9) and (4, 22)
    for bideg in ((4, 45), (3, 19)):
        dual, image = refdata.PSI_IMAGES[bideg]
        got = psi(DualElement(bideg[0], dual))
        assert got == LambdaElement(image), bideg
        assert is_cycle(got)


def test_psi_raw_identities_from_the_fixture():
    # each raw list, inadmissible words and all, builds its reduced image
    for term, raw in refdata.PSI_RAW_TERM_IMAGES_9.items():
        got = psi(DualElement(4, [term]))
        assert got == LambdaElement(raw), term
        assert got.terms == reference_reduce(set(raw)) != set(raw), term


@given(st.sets(st.integers(0, 9), max_size=6))
def test_xor_is_symmetric_difference(firsts):
    el = LambdaElement([(a, 9 - a) for a in firsts])
    assert (el ^ el).is_zero()
    assert (el ^ LambdaElement()) == el


def test_mixed_length_elements_are_rejected():
    with pytest.raises(ValueError):
        LambdaElement([(1, 2), (1,)])
    with pytest.raises(ValueError):
        LambdaElement([(1, 2), (2, 2)])  # mixed internal degree


def test_negative_indices_are_rejected():
    with pytest.raises(ValueError, match="negative index"):
        LambdaElement([(3, -1)])
    with pytest.raises(ValueError, match="negative index"):
        LambdaElement([(2, 1), (4, -1)])


def test_each_single_fault_keeps_its_message():
    cases = [
        ([(1, 2), (3,)], "element mixes word lengths or degrees"),
        ([(2, 1), (4, -1)], "negative index in word (4, -1)"),
        ([(0, 2000)], "index above 1022 in word (0, 2000)"),
    ]
    for words, message in cases:
        with pytest.raises(ValueError) as raised:
            LambdaElement(words)
        assert str(raised.value) == message


def test_constructor_packs_and_flags_words_like_the_reference():
    # admissible words are packed as given; any others are reduced
    rng = random.Random(23)
    admissible_seen = 0
    for _ in range(600):
        s, n = rng.randint(0, 5), rng.randint(0, 30)
        words = [random_composition(rng, s, n) if s else ()
                 for _ in range(rng.randint(1, 4))]
        el = LambdaElement(iter(words))
        if all(map(pc.is_admissible, words)):
            assert el._words == frozenset(map(pc.pack, words)), words
            admissible_seen += 1
        else:
            assert el.terms == reference_reduce(set(words)), words
    assert 0 < admissible_seen < 600


def test_packed_words_round_trip():
    top = lambda_algebra.MAX_LETTER
    long_word = tuple(range(300))
    words = [(), (0,), (0, 0, 0), (top,), (top, 0, top), long_word]
    packed = [pc.pack(w) for w in words]
    assert len(set(packed)) == len(words)  # l_0 and the empty word differ
    assert [lambda_algebra._unpack(w) for w in packed] == words
    assert LambdaElement([long_word]).terms == {long_word}
    assert LambdaElement([(top,)]).sorted_words() == [(top,)]


def test_letters_above_the_cap_are_rejected():
    with pytest.raises(ValueError, match="index above 1022"):
        LambdaElement([(1023,)])
    with pytest.raises(ValueError, match="index above 1022"):
        LambdaElement([(0, 2000)])
    # the CLI test covers ext and psi; homology_coordinates reaches these too
    with pytest.raises(lambda_algebra.cohit.ResourceLimit):
        lambda_algebra._coords(2, 1023)


def test_sums_with_inadmissible_user_words_are_still_reduced(fresh_lambda_caches):
    built = element(2, 6, 0b100)
    assert built == LambdaElement([(2, 4)])
    user = LambdaElement([(5, 1)])  # l5 l1 = l3 l3
    assert user == LambdaElement([(3, 3)])
    for el in (built ^ user, user ^ built):
        words = {(2, 4), (5, 1)}
        assert el.terms == reference_reduce(words) == {(2, 4), (3, 3)}
        want = reference_reduce(reference_derivation((2, 4))
                                ^ reference_derivation((5, 1)))
        assert differential(el).terms == want
    assert differential(user) == differential(LambdaElement([(3, 3)]))


def test_coordinates_reject_words_outside_the_admissible_basis():
    index = lambda_algebra._coords(2, 3)
    el = LambdaElement([(1, 2)])
    assert element(2, 3, lambda_algebra._vector(index, el._words)) == el
    # every element the constructor builds is admissible: the engine's own
    # path is the only way an inadmissible word could reach the coordinates
    inadmissible = LambdaElement._trusted(frozenset({pc.pack((3, 0))}))  # 3 > 2 * 0
    with pytest.raises(ValueError, match="not an admissible word"):
        lambda_algebra._vector(index, inadmissible._words)
    with pytest.raises(ValueError, match="not an admissible word"):
        lambda_algebra._vector(index, LambdaElement([(1, 1)])._words)  # wrong degree
