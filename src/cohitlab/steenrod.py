"""Steenrod squares on F2[x_1..x_q], their dual action, and hit spans.

The left action on polynomials follows the Cartan rule: on a monomial,
``Sq^t(x^e) = sum over (d_1 + ... + d_q = t) of prod C(e_i, d_i) x^(e + d)``
with binomials mod 2, so a term survives exactly when every ``d_i`` is a
binary submask of ``e_i`` (Lucas).  The engine applies it to packed
monomials only (:func:`_sq_word`); the same rule on exponent tuples is the
tests' reference, ``sq_monomial`` in ``tests/property_checks.py``.

The right action on the divided-power dual is
``(a^(m)) Sq^t = C(m - t, t) a^(m - t)`` on one factor, extended by the
Cartan rule across factors.  It is adjoint to the left action under the
monomial/divided-monomial pairing.

A ``HitSpan`` is the echelonized subspace of degree-n polynomials of the form
``sum Sq^{2^i}(g_i)`` ("hit" elements); the ``Sq^{2^i}`` suffice because they
generate the whole algebra of squares.  Columns ascend in the monomial order
(weight-then-exponent), so the pivot of a row is its largest monomial; this
makes the non-pivot columns a canonical basis of the quotient and respects
the weight filtration block by block.  Columns and row generators are built
one weight vector at a time, in that order (see :func:`live_monomials`), as
packed words: one lane of ``_lane_width(n)`` bits per variable, wide enough
for any exponent of degree n, with e_1 in the top lane, so that integers
compare as exponent tuples do.  The span is built one orbit of the variable
permutations at a time: Sq^t is computed on the packed orbit
representatives only, its terms are kept where a packed index of the
columns has them, and a representative already in the span stands for its
whole orbit.  Words are unpacked to exponent tuples for ``columns`` and
``position`` only, which the column-orbit tables and every query read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from functools import cache
from itertools import accumulate, combinations, permutations
from operator import eq, itemgetter
from typing import Callable, Iterable

from .f2linalg import EchelonForm, from_support, support
from .polyspace import (
    DualElement,
    Monomial,
    Polynomial,
    WeightVector,
    check_rank,
    padded_weight,
    trim_weight,
    weight_vector,
    weight_vectors,
)


def binom_odd(a: int, b: int) -> bool:
    """True when C(a, b) is odd (zero outside 0 <= b <= a)."""
    if b < 0 or b > a:
        return False
    return (b & (a - b)) == 0


@cache
def _submasks(e: int) -> tuple[int, ...]:
    """All binary submasks of e, ascending.

    ``d = (d - 1) & e`` steps from one submask to the next smaller one, so
    the walk visits the 2^popcount(e) submasks only, not all of 0..e.
    """
    out = [e]
    d = e
    while d:
        d = (d - 1) & e
        out.append(d)
    out.reverse()
    return tuple(out)


def _lane_width(n: int) -> int:
    """Bits per lane of a packed monomial of degree at most n: as many as any
    exponent needs, so no lane overflows into the next at any degree."""
    return max(n.bit_length(), 1)


def _unpack(q: int, n: int, words: Iterable[int]) -> list[Monomial]:
    """The exponent tuples of packed monomials of lane width ``_lane_width(n)``."""
    width = _lane_width(n)
    mask = (1 << width) - 1
    shifts = range(width * (q - 1), -1, -width)  # e_1 sits in the top lane
    return [tuple([w >> s & mask for s in shifts]) for w in words]


def _sq_word(t: int, g: int, q: int, n: int) -> list[int]:
    """Terms of Sq^t on the packed monomial g of degree n - t; none cancel.

    g has q lanes of ``_lane_width(n)`` bits.  A term adds to each lane e a
    binary submask d of e, the d summing to t, so every lane of a term stays
    within n and inside its lane.  Lanes are taken from the top, as
    :func:`_unpack` reads them.  A lane walks only its submasks d up to the
    degree r left to add, a prefix of the ascending :func:`_submasks` found
    by bisection; a d leaving more than the lanes below can take is cut,
    and the last d is whatever remains.
    """
    width = _lane_width(n)
    mask = (1 << width) - 1
    cap = n - t  # g's degree, then what the lanes below the one taken hold
    partial = [(t, g)]  # (degree left to add, word so far)
    for s in range(width * (q - 1), 0, -width):
        e = g >> s & mask
        cap -= e
        subs = _submasks(e)
        partial = [
            (r - d, w + (d << s))
            for r, w in partial
            for d in subs[:bisect_right(subs, r)]
            if d >= r - cap
        ]
    e = g & mask
    return [w + r for r, w in partial if r & e == r]


def live_monomials(
    q: int, m: int, t: int, bound: tuple[int, ...], descending: bool = False
) -> list[int]:
    """Degree-m monomials g that Sq^t may carry to padded weight >= bound.

    Each g is a packed word: one lane of ``_lane_width(m + t)`` bits per
    variable, e_1 in the top lane, so integers compare as exponent tuples do
    and the terms of Sq^t(g), of degree m + t, fit the same lanes.  The list
    is in the monomial order (weight, then exponent-lex); with t = 0 these
    are the monomials of padded weight at least bound, and with
    ``bound = ()`` all of them.  A monomial is left out only when every
    term of Sq^t(g) has padded weight below bound, which depends only on
    its weight vector (:func:`_reaches`), so the live weights are taken in
    ascending order and each is expanded into its monomials.  The set is
    closed under permuting the exponents; with ``descending`` only its
    orbit representatives are built, the g with non-increasing exponents.
    No weight has more than q ones in a plane, so a bound above q leaves none.
    """
    if bound and bound[0] > q:
        return []
    width = _lane_width(m + t)
    return [
        g
        for w in weight_vectors(q, m)
        if _reaches(w, t, bound)
        for g in _weight_words(q, w, width, descending)
    ]


def _reaches(w: WeightVector, t: int, bound: tuple[int, ...]) -> bool:
    """Whether Sq^t may carry a monomial of weight w to padded weight >= bound.

    A term g + d of Sq^t(g) is odd exactly where g is odd and d even, and
    the number of odd d_i has the parity of t, so the first weight of a term
    is at most top = w_0 - (t mod 2).  Above bound[0] the term may reach,
    below it none does; on a tie with t odd one may, and with t even a term
    reaching it has every d_i even, so its half is a term of Sq^(t/2) on the
    half of g, of weight w[1:], that must reach bound[1:].
    """
    for i, b in enumerate(bound):
        top = (w[i] if i < len(w) else 0) - (t & 1)
        if top != b or t & 1:
            return top >= b
        t >>= 1
    return True


@cache
def _plane_steps(q: int, c: int, width: int, ties: int) -> tuple[tuple[int, int], ...]:
    """(low, ties after) for each packed word setting bit 0 in c of q lanes.

    Bit j of ties marks lanes j and j + 1, counted from the top, as equal so
    far; a low that sets the lower lane of a tied pair and not the upper is
    left out, so a non-increasing prefix stays non-increasing.  With
    ``ties = 0`` every low is kept.
    """
    steps = []
    for lanes in combinations(range(q), c):
        b = sum(1 << j for j in lanes)  # bit j: lane j, from the top, is set
        if ties & b >> 1 & ~b:
            continue
        low = sum(1 << width * (q - 1 - j) for j in lanes)
        steps.append((low, ties & ~(b ^ b >> 1)))
    return tuple(steps)


def _weight_words(q: int, w: WeightVector, width: int, descending: bool) -> list[int]:
    """The packed monomials of weight vector w, ascending.

    Bit plane i sets bit 0 in w_i lanes, from the top plane down, each plane
    shifting the prefix up one bit.  With ``descending`` the prefixes are
    grouped by which adjacent lanes are still equal (:func:`_plane_steps`),
    so a prefix whose exponents increase somewhere is never built.
    """
    groups = {(1 << (q - 1)) - 1 if descending else 0: [0]}
    for c in reversed(w):
        grown: dict[int, list[int]] = defaultdict(list)
        for ties, prefixes in groups.items():
            for low, still in _plane_steps(q, c, width, ties):
                grown[still] += [(g << 1) | low for g in prefixes]
        groups = grown
    words = [g for prefixes in groups.values() for g in prefixes]
    words.sort()
    return words


@cache
def _permutations(q: int) -> tuple[Callable[[Monomial], Monomial], ...]:
    """The permutations of q exponents, as maps of monomials."""
    if q == 1:
        return (tuple,)
    return tuple(itemgetter(*p) for p in permutations(range(q)))


@cache
def _cosets(ties: tuple[bool, ...]) -> tuple[int, ...]:
    """Indices into ``_permutations`` of the distinct σg other than g, first
    found first, for a non-increasing g whose exponents j and j + 1 agree
    where ``ties[j]`` holds: that alone decides which σg coincide."""
    g = tuple(accumulate((not tie for tie in ties), initial=0))
    images = {perm(g): k for k, perm in enumerate(_permutations(len(g)))}
    del images[g]
    return tuple(images.values())


@cache
def _dual_steps(e: int) -> tuple[int, ...]:
    """The d, ascending, with C(e - d, d) odd: (a^(e)) Sq^d = a^(e - d)."""
    return tuple(d for d in range(e // 2 + 1) if binom_odd(e - d, d))


def sq_dual_all(term: Monomial) -> list[tuple[int, Monomial]]:
    """(t, u) for each term u of (a^(term)) Sq^t, every t >= 0; none cancel."""
    partial: list[tuple[int, Monomial]] = [(0, ())]
    for e in term:
        partial = [
            (s + d, done + (e - d,)) for s, done in partial for d in _dual_steps(e)
        ]
    return partial


def is_annihilated(theta: DualElement) -> bool:
    """True when (theta) Sq^t = 0 for every t > 0.

    Checking t = 2^i suffices because those generate all squares and the
    right action is an algebra action.  One pass toggles each (2^i, u) of
    each term: the last factor e takes d = 2^i - s after each (s, head) of
    :func:`sq_dual_all` on the others, so only terms of the Sq^(2^i) are built.
    """
    left: set[tuple[int, Monomial]] = set()
    for term in theta.terms:
        e = term[-1]
        for s, head in sq_dual_all(term[:-1]):
            t = 1
            while t - s <= e >> 1:  # binom_odd is False while t < s
                if binom_odd(e - t + s, t - s):
                    left ^= {(t, head + (e - t + s,))}
                t <<= 1
    return not left


class HitSpan:
    """Echelonized span of the hit elements in one degree.

    ``columns`` lists the degree-n monomials in ascending monomial order, so
    pivots eliminate the largest monomial of each row and every stored row is
    "pivot + strictly smaller terms".  ``restrict_weight`` drops all columns
    of weight strictly below the given weight vector (callers must ensure the
    dropped monomials are hit, e.g. by the minimal-spike criterion; rows are
    then projected onto the surviving columns, which presents the same
    quotient).  ``basis`` lists the admissible (non-pivot) monomials in
    column order, so ascending in the monomial order: the basis of Q_n that
    ``coordinates`` reads (from a polynomial or a dual element) and
    ``from_coordinates`` writes, so a class's normal form is
    ``from_coordinates(coordinates(f))``; primitive k of
    ``primitive_vectors`` is dual to ``basis[k]``.  ``sum_coordinates``
    reads the same coordinates off a sum of monomials, with no polynomial
    built: it is how the GL action is computed (:mod:`cohitlab.glaction`),
    whose transpositions are read as permutations of the columns.

    The rows are the Sq^t(g), t = 2^i, projected onto the columns, and they
    are offered one orbit of the symmetric group Σ_q at a time.  Σ_q permutes
    the variables, commutes with every Sq^t and keeps weight vectors, so the
    live generators, the columns and the set of rows are Σ_q-stable: a
    transposition maps each column to a column.  For
    each orbit representative (the g with non-increasing exponents) Sq^t(g)
    is computed once; if it reduces to zero the orbit is skipped, else the
    row of every distinct σg is inserted, made by permuting its terms.  Each
    orbit's bookkeeping is done once: the distinct σg come from one table per
    pattern of equal exponents (:func:`_cosets`), and each column's images
    under Σ_q from one table per column, built when a row first touches it.
    The row space is Σ_q-stable after every orbit, so a representative in it
    shows that its whole orbit is, and the final row space is the span of
    all the rows.  The stored rows depend on this order, but the pivots,
    coordinates, kernel vectors, admissible monomials and weight tables
    depend only on the row space, and nothing reads a stored row as it is.
    """

    def __init__(
        self, q: int, n: int, restrict_weight: WeightVector | None = None
    ):
        check_rank(q)
        if n < 0:
            raise ValueError("degree must be nonnegative")
        self.q = q
        self.n = n
        self.restrict_weight = restrict_weight
        self._bound = bound = (
            () if restrict_weight is None else padded_weight(restrict_weight, n)
        )
        # the packed columns, each at its position; only the build reads it
        index = {g: i for i, g in enumerate(live_monomials(q, n, 0, bound))}
        cols = _unpack(q, n, index)
        self.columns: tuple[Monomial, ...] = tuple(cols)
        self.position: dict[Monomial, int] = {m: i for i, m in enumerate(cols)}
        self.echelon = EchelonForm()
        self._build(index)
        free = self.echelon.free_columns(self.ncols)
        self.basis: tuple[Monomial, ...] = tuple(cols[p] for p in free)
        self._basis_index = {p: i for i, p in enumerate(free)}

    def _build(self, index: dict[int, int]) -> None:
        """Offer the rows one Σ_q orbit of (t, g) at a time; see the class.

        The Sq^t terms are packed words, kept where ``index`` (the packed
        columns) has them; ``index`` is emptied before the elimination.
        """
        q, n = self.q, self.n
        column = index.get
        reps = []  # (row, packed g, the columns of Sq^t(g))
        t = 1
        while 2 * t <= n:  # Sq^t vanishes below degree t
            gens = live_monomials(q, n - t, t, self._bound, descending=True)
            gens.sort()  # exponent-lex, kept among rows of equal length below
            for g in gens:
                ps = [p for p in map(column, _sq_word(t, g, q, n)) if p is not None]
                if ps:
                    reps.append((from_support(ps), g, ps))
            t <<= 1
        index.clear()
        # Rows offered least senior pivot first stay short while reducing.
        reps.sort(key=lambda rep: rep[0].bit_length())
        cols, pos = self.columns, self.position
        perms = _permutations(q)
        orbit: dict[int, list[int]] = {}  # p -> the position of σ(cols[p]), per σ
        for row, g, ps in reps:
            if not self.echelon.add(row):
                continue  # the whole orbit lies in the span already
            for p in ps:
                if p not in orbit:
                    orbit[p] = [pos[perm(cols[p])] for perm in perms]
            tables = [orbit[p] for p in ps]
            (e,) = _unpack(q, n, [g])
            for k in _cosets(tuple(map(eq, e, e[1:]))):  # σg's row: g's, permuted
                self.echelon.add(from_support([table[k] for table in tables]))

    # -- vector conversions -------------------------------------------------

    def _check_shape(self, x: Polynomial | DualElement) -> None:
        if x.q != self.q or x.degree not in (None, self.n):
            raise ValueError(f"{x._name} does not live in this degree")

    def _column_bits(self, terms: Iterable[Monomial]) -> int:
        """The column vector of a sum of degree-n terms; equal ones cancel.

        A term outside the columns drops only when it is :meth:`_below_bound`:
        it is hit, and it lies on no column of a restricted span.  Any other
        raises ``KeyError``.
        """
        v = 0
        pos = self.position
        for m in terms:
            p = pos.get(m)
            if p is not None:
                v ^= 1 << p
            elif not self._below_bound(m):
                raise KeyError(f"monomial {m} outside column space")
        return v

    def _below_bound(self, m: Monomial) -> bool:
        """Whether m has q exponents, degree n and padded weight below the
        bound: the rule that leaves it off the columns (:func:`_reaches`).

        The weights are compared one bit plane at a time, from plane 0 up,
        and the first plane where they differ decides; no weight is built.
        """
        if len(m) != self.q or sum(m) != self.n or min(m) < 0:
            return False
        for i, b in enumerate(self._bound):
            w = 0
            for e in m:
                w += e >> i & 1
            if w != b:
                return w < b
        return False

    def dual_terms(self, bits: int) -> list[list[int]]:
        """The dual monomials at a column vector's positions, as JSON lists,
        already in the monomial order (:func:`polyspace.monomial_key`)."""
        return [list(self.columns[p]) for p in support(bits)]

    # -- queries -------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.echelon.rank

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, x: Polynomial | DualElement) -> int:
        """Coefficient bit-vector of [x] over the admissible basis."""
        self._check_shape(x)
        return self.sum_coordinates(x.terms)

    def sum_coordinates(self, monomials: Iterable[Monomial]) -> int:
        """Coefficient bit-vector over ``basis`` of the class of a sum of monomials.

        The monomials are of degree n, and equal ones cancel.  One below the
        bound of a restricted span is hit and drops; any other outside the
        columns raises ``KeyError``.
        """
        return self.echelon.normal_form(self._column_bits(monomials), self._basis_index)

    def from_coordinates(self, bits: int) -> Polynomial:
        return Polynomial(self.q, [self.basis[i] for i in support(bits)])

    def weight_block(self, omega: WeightVector) -> range:
        """The indices of the basis monomials of weight omega (trailing zeros
        ignored): one run, since the basis ascends weight first."""
        w = padded_weight(trim_weight(omega), self.n)
        key = lambda m: padded_weight(weight_vector(m), self.n)
        return range(bisect_left(self.basis, w, key=key),
                     bisect_right(self.basis, w, key=key))

    def primitive_vectors(self) -> list[int]:
        """Kernel of the hit span: bit-vectors orthogonal to every hit row."""
        return self.echelon.kernel_basis(self.ncols)

    def primitive(self, k: int) -> int:
        """Primitive k of :meth:`primitive_vectors`, built alone."""
        return self.echelon.kernel_vector(self.position[self.basis[k]])

    def primitive_coordinates(self, theta: DualElement) -> int:
        """Coordinates of a primitive theta over :meth:`primitive_vectors`.

        They are theta's entries at the admissible columns.  A theta that
        some positive square does not kill raises ``ValueError``; one it
        kills has no term on a dropped monomial, since that is hit.
        """
        self._check_shape(theta)
        if not is_annihilated(theta):
            raise ValueError("element is not annihilated by all positive squares")
        index = self._basis_index
        bits = self._column_bits(theta.terms)
        return from_support(index[p] for p in support(bits) if p in index)


@cache
def hit_span(q: int, n: int, restrict_weight: WeightVector | None) -> HitSpan:
    """Memoized hit span for one (q, n); see :class:`HitSpan`.

    ``restrict_weight`` has no default, so that every call passes the same
    arguments for the same span: the memo keys ``hit_span(q, n)`` and
    ``hit_span(q, n, None)`` apart.
    """
    return HitSpan(q, n, restrict_weight)


def clear_cache() -> None:
    hit_span.cache_clear()
