"""Steenrod squares on F2[x_1..x_q], their dual action, and hit spans.

The left action on polynomials follows the Cartan rule: on a monomial,
``Sq^t(x^e) = sum over (d_1 + ... + d_q = t) of prod C(e_i, d_i) x^(e + d)``
with binomials mod 2, so a term survives exactly when every ``d_i`` is a
binary submask of ``e_i`` (Lucas).

The right action on the divided-power dual is
``(a^(m)) Sq^t = C(m - t, t) a^(m - t)`` on one factor, extended by the
Cartan rule across factors.  It is adjoint to the left action under the
monomial/divided-monomial pairing.

A ``HitSpan`` is the echelonized subspace of degree-n polynomials of the form
``sum Sq^{2^i}(g_i)`` ("hit" elements); the ``Sq^{2^i}`` suffice because they
generate the whole algebra of squares.  Columns are ordered with the largest
monomial first (weight-then-exponent order), which makes the non-pivot
columns a canonical basis of the quotient and respects the weight filtration
block by block.  The span is built one orbit of the variable permutations
at a time: Sq^t is computed on the orbit representatives only, and a
representative already in the span stands for its whole orbit.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from operator import add, itemgetter
from typing import Callable

from .f2linalg import EchelonForm, from_support, support
from .polyspace import (
    DualElement,
    Monomial,
    Polynomial,
    WeightVector,
    check_rank,
    enumerate_monomials,
    monomial_key,
    padded_weight,
)


def binom_odd(a: int, b: int) -> bool:
    """True when C(a, b) is odd (zero outside 0 <= b <= a)."""
    if b < 0 or b > a:
        return False
    return (b & (a - b)) == 0


@cache
def _submasks(e: int) -> tuple[int, ...]:
    """All binary submasks of e, ascending."""
    return tuple(d for d in range(e + 1) if d & e == d)


def sq_monomial(t: int, mono: Monomial) -> list[Monomial]:
    """Terms of Sq^t applied to a single monomial (no cancellation occurs)."""
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
            for d in _submasks(e)
            if r - cap <= d <= r
        ]
    e = mono[-1]
    return [done + (e + r,) for r, done in partial if r & e == r]


def live_monomials(
    q: int, m: int, t: int, bound: tuple[int, ...], descending: bool = False
) -> list[Monomial]:
    """Degree-m monomials g that Sq^t may carry to padded weight >= bound.

    Exponent-lex ascending, like ``enumerate_monomials(q, m)``;
    with t = 0 these are the monomials of padded weight at least bound, and
    with ``bound = ()`` all of them.  A monomial is left out only when every
    term of Sq^t(g) has padded weight below bound.  Built bit plane by bit
    plane from the low end: g = low + 2h with c odd exponents.  A term g + d
    is odd exactly where g is odd and d even, and the number of odd d_i has
    the parity of t, so the first weight of a term is at most
    top = c - (t mod 2).  Above bound[0] every h is kept, below it none; on
    a tie with t odd every h is kept, and with t even a term reaching it has
    every d_i even, so its half is a term of Sq^(t/2)(h) that must reach
    bound[1:].

    The set is closed under permuting the exponents (the test depends on
    counts of odd exponents only).  With ``descending`` only its orbit
    representatives are built, the g with non-increasing exponents.
    """
    out: list[Monomial] = []
    _live(q, m, t, bound, (0,) * q, 0, descending, out)
    out.sort()
    return out


def _is_descending(g: Monomial) -> bool:
    return all(a >= b for a, b in zip(g, g[1:]))


@cache
def _descending_monomials(q: int, m: int) -> tuple[Monomial, ...]:
    return tuple(filter(_is_descending, enumerate_monomials(q, m)))


@cache
def _bit_planes(q: int, shift: int) -> tuple[tuple[int, Monomial], ...]:
    """(c, low << shift) for each 0/1 exponent tuple low with c ones, c ascending."""
    lows = sorted((sum(low), low) for low in product((0, 1), repeat=q))
    return tuple((c, tuple(e << shift for e in low)) for c, low in lows)


def _live(
    q: int,
    m: int,
    t: int,
    bound: tuple[int, ...],
    base: Monomial,
    shift: int,
    descending: bool,
    out: list[Monomial],
) -> None:
    """Append base + (h << shift) for each live h of degree m."""
    if not bound:
        if m == 0:
            gs = (base,)
        else:
            # base < 1 << shift, so base + (h << shift) descends only if h does
            hs = (_descending_monomials if descending else enumerate_monomials)(q, m)
            gs = (tuple(b + (e << shift) for b, e in zip(base, h)) for h in hs)
        out.extend(filter(_is_descending, gs) if descending else gs)
        return
    for c, low in _bit_planes(q, shift):
        if c > m:
            break
        top = c - (t & 1)
        if (m - c) & 1 or top < bound[0]:
            continue
        rest = bound[1:] if top == bound[0] and not t & 1 else ()
        low_base = tuple(map(add, base, low))
        _live(q, (m - c) >> 1, t >> 1, rest, low_base, shift + 1, descending, out)


@cache
def _permutations(q: int) -> tuple[Callable[[Monomial], Monomial], ...]:
    """The permutations of q exponents, as maps of monomials."""
    if q == 1:
        return (tuple,)
    return tuple(itemgetter(*p) for p in permutations(range(q)))


def sq(t: int, f: Polynomial) -> Polynomial:
    """Left Steenrod square Sq^t on a homogeneous polynomial."""
    acc: set[Monomial] = set()
    for m in f.monomials:
        acc ^= set(sq_monomial(t, m))
    return Polynomial(f.q, acc)


@cache
def _dual_steps(e: int) -> tuple[int, ...]:
    """The d, ascending, with C(e - d, d) odd: (a^(e)) Sq^d = a^(e - d)."""
    return tuple(d for d in range(e // 2 + 1) if binom_odd(e - d, d))


def sq_dual_term(t: int, term: Monomial) -> list[Monomial]:
    """Terms of (a^(term)) Sq^t in the divided-power dual (no cancellation)."""
    if t < 0:
        raise ValueError("negative Steenrod square")
    if t == 0:
        return [term]
    # as in sq_monomial; factor e lowers by at most e // 2
    cap = sum(e >> 1 for e in term)
    if t > cap:
        return []
    partial: list[tuple[int, Monomial]] = [(t, ())]
    for e in term[:-1]:
        cap -= e >> 1
        partial = [
            (r - d, done + (e - d,))
            for r, done in partial
            for d in _dual_steps(e)
            if r - cap <= d <= r
        ]
    # the last factor takes the rest r <= e // 2, if C(e - r, r) is odd
    e = term[-1]
    return [done + (e - r,) for r, done in partial if not r & (e - 2 * r)]


def sq_dual_all(term: Monomial) -> list[tuple[int, Monomial]]:
    """(t, u) for each term u of (a^(term)) Sq^t, over every t >= 0 (for psi)."""
    partial: list[tuple[int, Monomial]] = [(0, ())]
    for e in term:
        partial = [
            (s + d, done + (e - d,)) for s, done in partial for d in _dual_steps(e)
        ]
    return partial


def sq_dual(t: int, theta: DualElement) -> DualElement:
    """Right Steenrod action on a dual element."""
    acc: set[Monomial] = set()
    for term in theta.terms:
        acc ^= set(sq_dual_term(t, term))
    return DualElement(theta.q, acc)


def is_annihilated(theta: DualElement) -> bool:
    """True when (theta) Sq^t = 0 for every t > 0.

    Checking t = 2^i suffices because those generate all squares and the
    right action is an algebra action.
    """
    n = theta.degree
    if n is None or n == 0:
        return True
    i = 1
    while i <= n:
        if not sq_dual(i, theta).is_zero():
            return False
        i <<= 1
    return True


class HitSpan:
    """Echelonized span of the hit elements in one degree.

    ``columns`` lists the degree-n monomials in decreasing monomial order, so
    pivots eliminate the largest monomial of each row and every stored row is
    "pivot + strictly smaller terms".  ``restrict_weight`` drops all columns
    of weight strictly below the given weight vector (callers must ensure the
    dropped monomials are hit, e.g. by the minimal-spike criterion; rows are
    then projected onto the surviving columns, which presents the same
    quotient).  ``basis`` lists the admissible (non-pivot) monomials,
    ascending in the monomial order: the basis of Q_n that ``coordinates``
    and ``from_coordinates`` read and write.

    The rows are the Sq^t(g), t = 2^i, projected onto the columns, and they
    are offered one orbit of the symmetric group Σ_q at a time.  Σ_q permutes
    the variables, commutes with every Sq^t and keeps weight vectors, so the
    live generators, the columns and the set of rows are Σ_q-stable.  For
    each orbit representative (the g with non-increasing exponents) Sq^t(g)
    is computed once; if it reduces to zero the orbit is skipped, else the
    row of every distinct σg is inserted, made by permuting its terms.  The
    row space is Σ_q-stable after every orbit, so a representative in it
    shows that its whole orbit is, and the final row space is the span of
    all the rows.  The stored rows depend on this order, but the pivots,
    normal forms, kernel vectors, admissible monomials and weight tables
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
        cols = live_monomials(q, n, 0, bound)
        cols.sort(key=monomial_key, reverse=True)  # column 0 is the most senior
        self.columns: tuple[Monomial, ...] = tuple(cols)
        self.position: dict[Monomial, int] = {m: i for i, m in enumerate(cols)}
        self.echelon = EchelonForm()
        self._build()
        free = self.admissible_positions()
        free.reverse()  # the least senior monomial first
        self.basis: tuple[Monomial, ...] = tuple(cols[p] for p in free)
        self._basis_index = {p: i for i, p in enumerate(free)}

    def _build(self) -> None:
        """Offer the rows one Σ_q orbit of (t, g) at a time; see the class."""
        pos = self.position
        reps = []  # (row, g, the terms of Sq^t(g) on live columns)
        t = 1
        while 2 * t <= self.n:  # Sq^t vanishes below degree t
            gens = live_monomials(self.q, self.n - t, t, self._bound, descending=True)
            for g in gens:
                terms = [m for m in sq_monomial(t, g) if m in pos]
                if terms:
                    reps.append((from_support(map(pos.__getitem__, terms)), g, terms))
            t <<= 1
        # Rows offered least senior pivot first stay short while reducing.
        reps.sort(key=lambda rep: rep[0] & -rep[0], reverse=True)
        perms = _permutations(self.q)
        for row, g, terms in reps:
            residual = self.echelon.reduce(row)
            if not residual:
                continue  # the whole orbit lies in the span already
            self.echelon.add(residual)  # its pivot is free: one step
            # one permutation per distinct permuted generator other than g
            members = {perm(g): perm for perm in perms}
            del members[g]
            for perm in members.values():
                self.echelon.add(from_support(pos[perm(m)] for m in terms))

    # -- vector conversions -------------------------------------------------

    def to_vector(self, f: Polynomial) -> int:
        """Project a polynomial onto the column space (restricted columns drop)."""
        if f.q != self.q or (f.degree not in (None, self.n)):
            raise ValueError("polynomial does not live in this degree")
        v = 0
        pos = self.position
        for m in f.monomials:
            p = pos.get(m)
            if p is None:
                if self.restrict_weight is None:
                    raise KeyError(f"monomial {m} outside column space")
            else:
                v ^= 1 << p
        return v

    def dual_to_vector(self, theta: DualElement) -> int:
        """Bit-vector of a dual element over the same column layout."""
        if theta.q != self.q or (theta.degree not in (None, self.n)):
            raise ValueError("dual element does not live in this degree")
        v = 0
        pos = self.position
        for t in theta.terms:
            p = pos.get(t)
            if p is None:
                # a dropped monomial is hit, and theta pairs to 1 with it
                raise ValueError(
                    "dual element is not annihilated by all positive squares: "
                    f"its term {t} pairs with a hit monomial"
                )
            v ^= 1 << p
        return v

    def to_polynomial(self, bits: int) -> Polynomial:
        return Polynomial(self.q, [self.columns[p] for p in support(bits)])

    def to_dual(self, bits: int) -> DualElement:
        return DualElement(self.q, [self.columns[p] for p in support(bits)])

    # -- queries -------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.echelon.rank

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Canonical representative of [f]: supported on admissible monomials."""
        return self.to_polynomial(self.echelon.normal_form(self.to_vector(f)))

    def admissible_positions(self) -> list[int]:
        return self.echelon.free_columns(self.ncols)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, f: Polynomial) -> int:
        """Coefficient bit-vector of [f] over the admissible basis."""
        nf = self.echelon.normal_form(self.to_vector(f))
        return from_support(self._basis_index[p] for p in support(nf))

    def from_coordinates(self, bits: int) -> Polynomial:
        return Polynomial(self.q, [self.basis[i] for i in support(bits)])

    def primitive_vectors(self) -> list[int]:
        """Kernel of the hit span: bit-vectors orthogonal to every hit row."""
        return self.echelon.kernel_basis(self.ncols)


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
