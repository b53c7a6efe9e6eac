"""The mod-2 lambda algebra: admissible words, rewriting, differential, homology.

Words ``(j_1, ..., j_s)`` stand for products ``l_{j_1} ... l_{j_s}`` of the
degree-j generators; the pair ``(a, b)`` of adjacent indices is *admissible*
when ``a <= 2b``, and the admissible words form a vector-space basis.  An
inadmissible pair rewrites as

    l_a l_b  =  sum_{j >= 0} C(n-1-j, j) l_{2b+1+j} l_{a-b-1-j},   n = a-2b-1,

(binomials mod 2, empty when a = 2b+1), and the differential is

    d(l_m)  =  sum_{j >= 1} C(m-j, j) l_{j-1} l_{m-j},

extended as a derivation.  On an admissible word ``l_m u`` it is computed one
leading generator at a time,

    D(l_m u)  =  d(l_m) u + l_m D(u),

with ``D(u)`` already admissible.  The first term needs no rewriting: an odd
C(m-j, j) forces j <= m-j, so j-1 <= 2(m-j), and m-j <= m <= 2 u_1.  The
second rewrites only the products ``l_m v`` with m > 2 v_1 (``_L``).  An
inadmissible input word is reduced first; d is well defined on the algebra.
The words of an element are grouped by their leading generator, and the
``D(u)`` of one group are summed before l_m multiplies them, so terms cancel
before any rewriting.  Only tails ``u`` are memoized (``_D``), and they are
read as well: the d of a one-word element that is already a memoized tail
is looked up, and any other word of an element is differentiated once,
without storing it.

There is one rewriting path: the left product ``_L`` of l_m with an
admissible word, reached through ``_times``.  ``adem_reduce`` groups words
the same way, reduces the tails under each leading index together and
multiplies them back by l_m.

Inside this module a word is one int: ``WIDTH`` bits a letter, the leading
letter lowest, each letter stored as its index + 1 so that l_0 and the empty
word (``0``) stay distinct.  Prepending l_m to v is ``(v << WIDTH) | (m +
1)``, the leading index of w is ``(w & MASK) - 1`` and its tail ``w >>
WIDTH``.  ``_L`` keys on the packed inadmissible word l_a u itself.  The
letters are capped at ``MAX_LETTER``: ``LambdaElement`` refuses a larger
index with ValueError, and ``ext_dim``, ``psi`` and the admissible words
refuse a degree whose words could hold one with :class:`cohit.ResourceLimit`.
Tuples stay at the boundary: ``LambdaElement.terms``, ``sorted_words``
and ``admissible_basis``, an unmemoized view that unpacks the words
afresh.

The memos hold packed words only.  ``_L`` and ``_D`` are dicts whose
``__missing__`` computes and stores a value, so a hit is a plain subscript.
``_L`` holds a product of one word as that bare int, and no word or several
as a frozenset (``_EMPTY`` when empty); ``_D`` holds frozensets.  The
admissible words of one (length, degree) are enumerated packed, already in
the order of their tuples, and kept once, as ``_coords(s, n).words``.

An element records whether all its words are admissible.  The constructor
checks the words it is given; the outputs of ``differential``,
``adem_reduce`` and the coordinates are admissible by construction, and so
is the sum of two such elements.  ``differential`` and ``adem_reduce``
reduce only elements without the flag.

The differential raises word length by one and lowers the internal degree
(the index sum) by one; the homology of ``(length s, index sum n)`` computes
the degree-(s, s+n) derived functors of GF(2) over the Steenrod algebra, so
``ext_dim(s, n)`` below is the dimension of that trigraded piece.

``psi`` sends a product of divided powers ``a_1^(j_1) ... a_q^(j_q)`` to
``sum_{k >= j_1} l_k psi(a_2^(j_2) ... a_q^(j_q) . Sq^{k - j_1})`` with
``psi(a^(j)) = l_j``; on classes killed by all positive squares it lands in
cycles and induces the algebraic transfer.  It is applied to a whole element
one variable at a time, the terms grouped by their leading generator l_k, so
they cancel in each group before any word is built; the words are reduced
once at the end.
"""

from __future__ import annotations

import sys
from functools import cache
from typing import Collection, Iterable, Iterator

from . import cohit
from .f2linalg import EchelonForm, echelonize, image_kernel
from .polyspace import DualElement, DualMonomial, count_monomials
from .steenrod import binom_odd, sq_dual_all

Word = tuple[int, ...]

WIDTH = 10  # bits a letter of a packed word
MASK = (1 << WIDTH) - 1
MAX_LETTER = MASK - 1  # a letter is stored as its index + 1
_EMPTY: frozenset[int] = frozenset()  # every empty memo value; one word is a bare int

# Generous guard for runaway rewriting: the most left products (``_L``
# memo misses) one reduction or differential may compute; never reached in
# supported degrees.
MAX_REWRITES = 10_000_000
_rewrite_count = 0  # left products of the reduction or differential in progress


class RewriteBudget(cohit.ResourceLimit):
    """Raised if one reduction or differential needs over MAX_REWRITES left products."""

    error = "rewrite-budget"


def _unpack(w: int) -> Word:
    out = []
    while w:
        out.append((w & MASK) - 1)
        w >>= WIDTH
    return tuple(out)


@cache
def adem_pair(a: int, b: int) -> frozenset[Word]:
    """Admissible-direction expansion of one inadmissible pair l_a l_b."""
    if a <= 2 * b:
        raise ValueError(f"pair ({a}, {b}) is already admissible")
    n = a - 2 * b - 1
    out = set()
    for j in range(0, (n - 1) // 2 + 1):
        if binom_odd(n - 1 - j, j):
            out.add((2 * b + 1 + j, a - b - 1 - j))
    return frozenset(out)


class LambdaElement:
    """A homogeneous element: a set of packed words, not necessarily admissible."""

    __slots__ = ("_words", "_admissible")

    def __init__(self, terms: Iterable[Word] = ()):
        words: set[int] = set()
        shape = None
        admissible = True
        for word in terms:
            word = tuple(word)
            if shape != (len(word), sum(word)):
                if shape is not None:
                    raise ValueError("element mixes word lengths or degrees")
                shape = (len(word), sum(word))
            w, after = 0, MAX_LETTER  # after: the letter to the right of j
            for j in reversed(word):
                if not 0 <= j <= MAX_LETTER:
                    if min(word) < 0:
                        raise ValueError(f"negative index in word {word}")
                    raise ValueError(f"index above {MAX_LETTER} in word {word}")
                if j > 2 * after:
                    admissible = False
                w = (w << WIDTH) | (j + 1)
                after = j
            words.add(w)
        self._words = frozenset(words)
        self._admissible = admissible

    @classmethod
    def _trusted(cls, words: frozenset[int], admissible: bool) -> "LambdaElement":
        """An element over homogeneous packed words the engine built: no checks."""
        el = object.__new__(cls)
        el._words = words
        el._admissible = admissible
        return el

    @property
    def terms(self) -> frozenset[Word]:
        return frozenset(map(_unpack, self._words))

    @property
    def length(self) -> int | None:
        for w in self._words:
            return -(-w.bit_length() // WIDTH)
        return None

    @property
    def internal_degree(self) -> int | None:
        for w in self._words:
            return sum(_unpack(w))
        return None

    def is_zero(self) -> bool:
        return not self._words

    def __xor__(self, other: "LambdaElement") -> "LambdaElement":
        if not self._words:
            return other
        if not other._words:
            return self
        if (self.length, self.internal_degree) != (
            other.length,
            other.internal_degree,
        ):
            raise ValueError("cannot add inhomogeneous elements")
        return LambdaElement._trusted(self._words ^ other._words,
                                      self._admissible and other._admissible)

    __add__ = __xor__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LambdaElement) and self._words == other._words

    def __hash__(self) -> int:
        return hash(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def sorted_words(self) -> list[Word]:
        return sorted(map(_unpack, self._words))

    def __repr__(self) -> str:
        if not self._words:
            return "0"
        return " + ".join(
            "*".join(f"l{j}" for j in w) if w else "1" for w in self.sorted_words()
        )


def _by_leading(words: Iterable[int]) -> dict[int, list[int]]:
    """The tails of distinct nonempty packed words, listed by leading index.

    Distinct words with one leading index have distinct tails, so each list
    holds every tail once.
    """
    groups: dict[int, list[int]] = {}
    for w in words:
        if w:
            groups.setdefault((w & MASK) - 1, []).append(w >> WIDTH)
    return groups


def _reduce(words: Collection[int]) -> set[int]:
    """Admissible form of a sum of distinct packed words of one length.

    The tails under each leading index m are reduced together, then
    multiplied by l_m once.
    """
    if 0 in words:  # the empty word
        return {0}
    acc: set[int] = set()
    for m, us in _by_leading(words).items():
        _times(m, _reduce(us), acc)
    return acc


def adem_reduce(el: LambdaElement) -> LambdaElement:
    """Rewrite into the admissible basis.

    Raises :class:`RewriteBudget` if this one reduction computes more than
    ``MAX_REWRITES`` left products; products computed before are memoized
    and cost nothing.
    """
    global _rewrite_count
    if el._admissible:
        return el
    _rewrite_count = 0
    return LambdaElement._trusted(frozenset(_reduce(el._words)), True)


@cache
def _d_generator(m: int) -> frozenset[int]:
    """d(l_m) as packed pairs (j - 1, m - j)."""
    out = set()
    for j in range(1, m + 1):
        if binom_odd(m - j, j):
            out.add(((m - j + 1) << WIDTH) | j)
    return frozenset(out)


def _times(m: int, words: Iterable[int], acc: set[int]) -> set[int]:
    """Add l_m v to acc for each packed admissible word v, in admissible form."""
    lead = m + 1
    # l_m v is admissible when v is empty or its leading letter, stored as
    # index + 1, is at least this: m <= 2 v_1
    least = (m + 1) // 2 + 1
    for v in words:
        t = (v << WIDTH) | lead
        if (v & MASK) >= least or not v:
            acc.remove(t) if t in acc else acc.add(t)
        else:
            r = _L[t]
            if type(r) is int:
                acc.remove(r) if r in acc else acc.add(r)
            else:
                acc ^= r
    return acc


class _LeftProducts(dict):
    """Packed word l_a u, with u admissible and a > 2 u_1 -> its admissible form.

    One word is stored bare, as its packed int; no word or several as a
    frozenset.  The only place an inadmissible pair is rewritten; each
    product computed (a miss) counts against ``MAX_REWRITES``, and a miss
    that raises stores nothing.
    """

    __slots__ = ()

    def __missing__(self, w: int) -> int | frozenset[int]:
        global _rewrite_count
        _rewrite_count += 1
        if _rewrite_count > MAX_REWRITES:
            raise RewriteBudget(f"more than {MAX_REWRITES} left products")
        u = w >> WIDTH
        rest = u >> WIDTH
        acc: set[int] = set()
        for p, q in adem_pair((w & MASK) - 1, (u & MASK) - 1):
            t = (rest << WIDTH) | (q + 1)
            if not rest or q <= 2 * ((rest & MASK) - 1):
                t = (t << WIDTH) | (p + 1)  # admissible: so is the pair (p, q)
                acc.remove(t) if t in acc else acc.add(t)
            else:
                r = self[t]
                _times(p, (r,) if type(r) is int else r, acc)
        if len(acc) == 1:
            r = acc.pop()
        else:
            r = frozenset(acc) if acc else _EMPTY
        self[w] = r
        return r


_L = _LeftProducts()


def _d_grouped(tails: dict[int, list[int]]) -> set[int]:
    """d of the sum of l_m u over m and the distinct admissible tails u under m.

    Each l_m u is admissible, and so is each d(l_m) u: the word
    l_{j-1} l_{m-j} u determines m and u, so these terms are distinct and
    are collected with no cancelling.  The tails of one leading index share
    one left product: their D(u) are summed first, so terms cancel before
    ``_L``.
    """
    acc = {pair | u << 2 * WIDTH
           for m, us in tails.items() for pair in _d_generator(m) for u in us}
    for m, us in tails.items():
        if len(us) == 1:
            if us[0]:
                _times(m, _D[us[0]], acc)
        else:  # distinct tails of one length: none is empty
            below: set[int] = set()  # sum of D(u) over the tails u
            for u in us:
                below ^= _D[u]
            _times(m, below, acc)
    return acc


class _TailDifferentials(dict):
    """Nonempty packed admissible tail u -> d(u) in admissible form, a frozenset.

    A miss that raises stores nothing.
    """

    __slots__ = ()

    def __missing__(self, u: int) -> frozenset[int]:
        d = _d_grouped({(u & MASK) - 1: [u >> WIDTH]})
        r = self[u] = frozenset(d) if d else _EMPTY
        return r


_D = _TailDifferentials()


def differential(el: LambdaElement) -> LambdaElement:
    """d in admissible form; an element without the admissible flag is reduced first.

    Only tails are memoized, in ``_D``.  The d of a one-word element is read
    from there when the word is already a memoized tail, and otherwise
    computed without storing it.  Shares :func:`adem_reduce`'s per-call
    budget of ``MAX_REWRITES``.
    """
    global _rewrite_count
    _rewrite_count = 0
    words = el._words if el._admissible else _reduce(el._words)
    if len(words) == 1:
        for w in words:
            d = _D.get(w)
            if d is not None:
                return LambdaElement._trusted(d, True)
    return LambdaElement._trusted(frozenset(_d_grouped(_by_leading(words))), True)


def is_cycle(el: LambdaElement) -> bool:
    return differential(el).is_zero()


def _least_tail(j: int, slots: int) -> int:
    """Least index sum of ``slots`` indices that may follow index j."""
    total = 0
    for _ in range(slots):
        j = (j + 1) // 2
        total += j
    return total


def _admissible_words(s: int, n: int) -> tuple[int, ...]:
    """Packed admissible words of length s and index sum n, in the tuple order.

    The words are built depth first, one letter a level with ascending index,
    which is already the lexicographic order of their tuples.  Raises
    :class:`cohit.ResourceLimit` when a word may hold a letter above
    ``MAX_LETTER``, which a packed word cannot store.
    """
    if s < 0 or n < 0:
        return ()
    if s == 0:
        return (0,) if n == 0 else ()  # the empty word
    _check_letters(s, n)
    out: list[int] = []

    def rec(prefix: int, shift: int, remaining: int, slots: int, lo: int) -> None:
        # lo: the least index admissible after the letter before, half of it
        if slots == 1:
            if remaining >= lo:
                out.append(prefix | (remaining + 1) << shift)
            return
        for j in range(lo, remaining + 1):
            # each later slot needs at least half the index before it; once
            # j leaves too little for that, every larger j does too
            if remaining - j < _least_tail(j, slots - 1):
                break
            rec(prefix | (j + 1) << shift, shift + WIDTH, remaining - j,
                slots - 1, (j + 1) // 2)

    rec(0, 0, n, s, 0)
    return tuple(out)


def admissible_basis(s: int, n: int) -> tuple[Word, ...]:
    """Admissible words of length s and index sum n, lexicographically sorted.

    A tuple view of the packed words, built afresh on every call: the
    engine reads ``_coords(s, n).words``.
    """
    return tuple(map(_unpack, _admissible_words(s, n)))


def _pairs(r: int, lo: int) -> int:
    """Admissible words (a, b) with a + b = r and a >= lo: a <= 2b is a <= 2r/3."""
    return max(0, 2 * r // 3 - lo + 1)


def admissible_count(s: int, n: int, cap: int) -> int:
    """``len(admissible_basis(s, n))`` when at most cap, else a count above cap.

    No word is built.  With c(k, r, lo) the number of admissible words of
    length k and index sum r whose first index is at least lo,

        c(k, r, lo) = c(k, r, lo + 1) + c(k - 1, r - lo, ceil(lo / 2)),

    and two slots have a closed form.  Longer words are counted one index
    sum r at a time, in one loop that stops once the count passes cap: it
    never falls as r grows (raising the last index keeps a word admissible).
    """
    if s < 0 or n < 0:
        return 0
    # the nonzero indices of a word are a tail of at most n: longer words
    # only add leading zeros
    s = min(s, max(n, 1))
    if s < 2:
        return 1 if s == 1 or n == 0 else 0
    if s == 2:
        return _pairs(n, 0)
    tables: list[list[list[int]]] = [[] for _ in range(3, s)]  # c(3..s-1, r, lo)

    def below(k: int, r: int, lo: int) -> int:
        if k == 2:
            return _pairs(r, lo)
        return tables[k - 3][r][lo] if lo <= r else 0

    for r in range(n + 1) if tables else (n,):
        for k, table in enumerate(tables, 3):
            row = [0] * (r + 2)
            for lo in range(r, -1, -1):
                row[lo] = row[lo + 1] + below(k - 1, r - lo, (lo + 1) // 2)
            table.append(row)
        count = 0
        for lo in range(r + 1):
            count += below(s - 1, r - lo, (lo + 1) // 2)
            if count > cap:
                return count
    return count


def _check_letters(length: int, degree: int) -> None:
    """Refuse words of this shape when one may hold a letter above MAX_LETTER."""
    if length > 0 and degree > MAX_LETTER:
        raise cohit.ResourceLimit(f"words of degree {degree} may hold letters "
                                  f"above the cap of {MAX_LETTER}")


class _Coordinates:
    """Bit coordinates over the packed admissible basis of one (length, degree)."""

    def __init__(self, s: int, n: int):
        self.s, self.n = s, n
        self.words = _admissible_words(s, n)
        self.index = {w: i for i, w in enumerate(self.words)}

    def vector(self, el: LambdaElement) -> int:
        """Coordinates of an element already in admissible form."""
        index = self.index
        v = 0
        for w in el._words:
            i = index.get(w)
            if i is None:
                raise ValueError(
                    f"word {_unpack(w)} is not an admissible word of length "
                    f"{self.s} and degree {self.n}"
                )
            v ^= 1 << i
        return v


@cache
def _coords(s: int, n: int) -> _Coordinates:
    return _Coordinates(s, n)


def _images(s: int, n: int) -> Iterator[int]:
    """d of each word of (length s, degree n), in (s + 1, n - 1) coordinates."""
    target = _coords(s + 1, n - 1)
    for w in _coords(s, n).words:
        yield target.vector(differential(LambdaElement._trusted(frozenset((w,)), True)))


@cache
def _homology(s: int, n: int) -> tuple[EchelonForm, tuple[int, ...]]:
    """One tagged echelon of (length s, degree n), and the cycles it kept.

    d's images into (s, n) go in untagged.  Then each cycle independent
    modulo the rows before it goes in tagged ``1 << k``, k its index among
    the cycles kept, so a cycle reduces to 0 with its homology coordinates
    as the tag.  The echelon of each map lives only while its kernel is read.
    """
    ech = echelonize(_images(s - 1, n + 1))
    cycles: list[int] = []
    for v in image_kernel(_images(s, n)):
        if ech.add_tagged(v, 1 << len(cycles)):
            cycles.append(v)
    return ech, tuple(cycles)


def ext_dim(s: int, n: int) -> int:
    """Dimension of the homology at (length s, internal degree n).

    Raises :class:`cohit.ResourceLimit` before any basis is built when the
    target of either map, (s, n) or (s + 1, n - 1), has more admissible
    words than ``cohit.MAX_COLUMNS``, when its words are too long for the
    interpreter's recursion limit, or when a word of either map may hold a
    letter above ``MAX_LETTER``: the source of the map into (s, n) has
    degree n + 1.
    """
    if s == 0:
        return 1 if n == 0 else 0
    if s < 0 or n < 0:
        return 0
    _check_letters(s - 1, n + 1)
    _check_letters(s, n)
    # d recurses once per letter, three frames deep: _d_grouped, the memo's
    # __missing__ and the interpreter entry the subscript makes to call it;
    # bisected, a bare script calling _homology needs 3 (s + 1) + 3 at
    # s = 40 and s = 100
    depth, frame = 3 * (s + 1) + 16, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    if depth > sys.getrecursionlimit():
        raise cohit.ResourceLimit(f"words of length {s + 1} recurse deeper than "
                                  f"the limit of {sys.getrecursionlimit()} frames")
    cap = cohit.MAX_COLUMNS
    for length, degree in ((s, n), (s + 1, n - 1)):
        # the words are compositions of degree, so most degrees need no count
        compositions = count_monomials(length, degree)
        if compositions > cap and admissible_count(length, degree, cap) > cap:
            raise cohit.ResourceLimit(
                f"length {length} and degree {degree} have more admissible "
                f"words than the budget of {cap}"
            )
    return len(_homology(s, n)[1])


def classes_equal(x: LambdaElement, y: LambdaElement) -> bool:
    """Whether two cycles are homologous; raises on non-cycles."""
    for el, name in ((x, "left"), (y, "right")):
        if not el.is_zero() and not is_cycle(el):
            raise ValueError(f"{name} element is not a cycle")
    diff = adem_reduce(x ^ y)
    if diff.is_zero():
        return True
    s, n = diff.length, diff.internal_degree
    return _homology(s, n)[0].reduce_tagged(_coords(s, n).vector(diff)) == (0, 0)


def homology_coordinates(el: LambdaElement, s: int, n: int) -> tuple[int, ...]:
    """Coefficients of a cycle over the homology basis, modulo boundaries.

    The basis is the cycles ``_homology(s, n)`` keeps.  The bidegree is
    passed explicitly so the zero element resolves; raises on non-cycles and
    on elements of the wrong bidegree.
    """
    el = adem_reduce(el)
    if not el.is_zero():
        if (el.length, el.internal_degree) != (s, n):
            raise ValueError(
                f"element has bidegree {(el.length, el.internal_degree)}, "
                f"expected {(s, n)}"
            )
        if not is_cycle(el):
            raise ValueError("element is not a cycle")
    ech, cycles = _homology(s, n)
    residual, tag = ech.reduce_tagged(_coords(s, n).vector(el))
    if residual:
        raise RuntimeError("cycle escaped the homology decomposition")
    return tuple(tag >> k & 1 for k in range(len(cycles)))


# -- the divided-power to lambda transfer map -----------------------------------


def _psi_words(q: int, terms: Iterable[DualMonomial]) -> set[int]:
    """psi of a sum of dual monomials in q variables as packed words, unreduced.

    The sum is pushed down one variable: its image is the sum over k of
    l_k psi(bucket k), where bucket k sums (rest) Sq^(k - j_1) over the terms
    (j_1, rest).  Terms cancel inside each bucket before any word is built.
    """
    if q <= 1:
        return {j + 1 for (j,) in terms}  # psi(a^(j)) = l_j
    buckets: dict[int, set[DualMonomial]] = {}
    for term in terms:
        j1 = term[0]
        for t, sub in sq_dual_all(term[1:]):
            bucket = buckets.setdefault(j1 + t, set())
            bucket.remove(sub) if sub in bucket else bucket.add(sub)
    words: set[int] = set()
    for k, bucket in buckets.items():
        if bucket:
            words.update((w << WIDTH) | (k + 1) for w in _psi_words(q - 1, bucket))
    return words


def psi(theta: DualElement) -> LambdaElement:
    """The chain-level transfer on divided powers, in admissible form.

    Raises :class:`cohit.ResourceLimit` when theta's degree n is above
    ``MAX_LETTER``, or when the words of length q and degree n, one per
    degree-n monomial, are more than ``cohit.MAX_COLUMNS``: the degrees whose
    hit span is refused.  The cost is the Adem reduction, whose memo grows
    with the degree, and the budget refuses it before any word is built.
    """
    q, n = theta.q, theta.degree or 0
    _check_letters(q, n)
    count = count_monomials(q, n)
    if count > cohit.MAX_COLUMNS:
        raise cohit.ResourceLimit(f"degree {n} in {q} variables has {count} "
                                  f"words; budget is {cohit.MAX_COLUMNS}")
    words = _psi_words(q, theta.terms)
    return adem_reduce(LambdaElement._trusted(frozenset(words), False))


def clear_caches() -> None:
    adem_pair.cache_clear()
    _d_generator.cache_clear()
    _L.clear()
    _D.clear()
    _coords.cache_clear()
    _homology.cache_clear()
