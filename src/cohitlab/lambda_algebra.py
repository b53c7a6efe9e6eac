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
second rewrites only the products ``l_m v`` with m > 2 v_1 (``_L``).  The
words of an element are grouped by their leading generator, and the
``D(u)`` of one group are summed before l_m multiplies them, so terms cancel
before any rewriting.  Only tails ``u`` are memoized (``_D``), and they are
read as well: the d of a one-word element that is already a memoized tail
is looked up, and any other word of an element is differentiated once,
without storing it.

There is one rewriting path: the left product ``_L`` of l_m with an
admissible word, reached through ``_times``.  The constructor's reduction
groups words the same way, reduces the tails under each leading index
together and multiplies them back by l_m; ``psi`` multiplies each leading
l_k into the admissible image of its group as it recurses.

Inside this module a word is one int: ``WIDTH`` bits a letter, the leading
letter lowest, each letter stored as its index + 1 so that l_0 and the empty
word (``0``) stay distinct.  Prepending l_m to v is ``(v << WIDTH) | (m +
1)``, the leading index of w is ``(w & MASK) - 1`` and its tail ``w >>
WIDTH``.  ``_L`` keys on the packed inadmissible word l_a u itself.  The
letters are capped at ``MAX_LETTER``: ``LambdaElement`` refuses a larger
index with ValueError, and the homology, ``psi`` and the admissible words
refuse a degree whose words could hold one with :class:`cohit.ResourceLimit`.
Tuples stay at the boundary: ``LambdaElement.terms``, ``sorted_words``
and ``admissible_basis``, an unmemoized view that unpacks the words
afresh.

The memos hold packed words only.  ``_L`` and ``_D`` are dicts whose
``__missing__`` computes and stores a value, so a hit is a plain subscript.
``_L`` holds a product of one word as that bare int, and no word or several
as a frozenset (``_EMPTY`` when empty); ``_D`` holds tuples, which take a
seventh of a frozenset's memory at 8 words, and the tuples of several tails
are summed into one set.  The admissible words of one (length, degree) are
memoized packed, already in the order of their tuples, each joined from a
letter and the memoized words one letter shorter; ``_coords(s, n)`` maps
each of them to its position there.

An element holds admissible words only, so ``==`` is equality in the
algebra: ``LambdaElement([(3, 1)]) == LambdaElement()``, as l_3 l_1 = 0.
The constructor packs and checks the words it is given and reduces them
when one is inadmissible; ``differential``, ``psi`` and the homology build
their elements from admissible words, and the sum of two elements is
admissible.  ``adem_reduce`` is therefore the identity.

The differential raises word length by one and lowers the internal degree
(the index sum) by one; the homology of ``(length s, index sum n)`` computes
the degree-(s, s+n) derived functors of GF(2) over the Steenrod algebra, so
``ext_dim(s, n)`` below is the dimension of that trigraded piece.  Its
echelon holds rows only, shifted up t = dim Ext bits: in those low columns
boundaries are zero and cycle k has bit k, its homology coordinates.

``psi`` sends a product of divided powers ``a_1^(j_1) ... a_q^(j_q)`` to
``sum_{k >= j_1} l_k psi(a_2^(j_2) ... a_q^(j_q) . Sq^{k - j_1})`` with
``psi(a^(j)) = l_j``; on classes killed by all positive squares it lands in
cycles and induces the algebraic transfer.  It is applied to a whole element
one variable at a time, the terms grouped by their leading generator l_k, so
they cancel in each group before any word is built; each l_k multiplies its
group's image, already admissible, so the words come out reduced.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
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
_EMPTY: frozenset[int] = frozenset()  # every empty ``_L`` value; one word is a bare int

# Generous guard for runaway rewriting: the most left products (``_L``
# memo misses) one element's construction, differential or psi may compute;
# never reached in supported degrees.
MAX_REWRITES = 10_000_000
_rewrite_count = 0  # left products of the construction, d or psi in progress


class RewriteBudget(cohit.ResourceLimit):
    """Raised if one element's construction, differential or psi needs over
    MAX_REWRITES left products."""

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
    """A homogeneous element: a set of packed admissible words.  Inadmissible
    words given are reduced as it is built, under :class:`RewriteBudget`."""

    __slots__ = ("_words",)

    def __init__(self, terms: Iterable[Word] = ()):
        global _rewrite_count
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
        if not admissible:
            _rewrite_count = 0
            words = _reduce(words)
        self._words = frozenset(words)

    @classmethod
    def _trusted(cls, words: frozenset[int]) -> "LambdaElement":
        """An element over admissible packed words of one shape: no checks."""
        el = object.__new__(cls)
        el._words = words
        return el

    @property
    def terms(self) -> frozenset[Word]:
        return frozenset(map(_unpack, self._words))

    @property
    def bidegree(self) -> tuple[int, int] | None:
        """(length, index sum) of the words, or None for zero."""
        for w in self._words:
            word = _unpack(w)
            return len(word), sum(word)
        return None

    def is_zero(self) -> bool:
        return not self._words

    def __xor__(self, other: "LambdaElement") -> "LambdaElement":
        if not self._words:
            return other
        if not other._words:
            return self
        if self.bidegree != other.bidegree:
            raise ValueError("cannot add inhomogeneous elements")
        return LambdaElement._trusted(self._words ^ other._words)

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
    """The element itself: the constructor already holds it in the admissible
    basis.  No engine path calls it; the benchmark's tracer traces this name."""
    return el


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
            below = set(_D[us[0]])  # sum of D(u) over the tails u
            for u in us[1:]:
                below.symmetric_difference_update(_D[u])
            _times(m, below, acc)
    return acc


class _TailDifferentials(dict):
    """Nonempty packed admissible tail u -> d(u) in admissible form, a tuple
    of distinct packed words.

    A miss that raises stores nothing.
    """

    __slots__ = ()

    def __missing__(self, u: int) -> tuple[int, ...]:
        r = self[u] = tuple(_d_grouped({(u & MASK) - 1: [u >> WIDTH]}))
        return r


_D = _TailDifferentials()


def differential(el: LambdaElement) -> LambdaElement:
    """d in admissible form.

    Only tails are memoized, in ``_D``.  The d of a one-word element is read
    from there when the word is already a memoized tail, and otherwise
    computed without storing it.  Shares the constructor's per-call budget
    of ``MAX_REWRITES``.
    """
    global _rewrite_count
    _rewrite_count = 0
    words = el._words
    if len(words) == 1:
        for w in words:
            d = _D.get(w)
            if d is not None:
                return LambdaElement._trusted(frozenset(d))
    return LambdaElement._trusted(frozenset(_d_grouped(_by_leading(words))))


def is_cycle(el: LambdaElement) -> bool:
    return differential(el).is_zero()


@cache
def _admissible_words(s: int, n: int) -> tuple[int, ...]:
    """Packed admissible words of length s and index sum n, in the tuple order.

    Letter j followed by each word of (s - 1, n - j) that may follow it: those
    whose first index is at least j / 2.  Those words ascend by first index,
    so they are one slice, and taking j in ascending order keeps the words in
    the lexicographic order of their tuples.  Raises
    :class:`cohit.ResourceLimit` when a word may hold a letter above
    ``MAX_LETTER``, which a packed word cannot store.
    """
    if s < 0 or n < 0:
        return ()
    if s == 0:
        return (0,) if n == 0 else ()  # the empty word
    _check_letters(s, n)
    if s == 1:
        return (n + 1,)
    out: list[int] = []
    for j in range(n + 1):
        tails = _admissible_words(s - 1, n - j)
        first = bisect_left(tails, (j + 1) // 2 + 1, key=MASK.__and__)
        out.extend(u << WIDTH | (j + 1) for u in tails[first:])
    return tuple(out)


def admissible_basis(s: int, n: int) -> tuple[Word, ...]:
    """Admissible words of length s and index sum n, lexicographically sorted.

    A tuple view of the packed words, built afresh on every call: the
    engine reads the packed ``_admissible_words(s, n)``.
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


@cache
def _coords(s: int, n: int) -> dict[int, int]:
    """Packed admissible word of (length s, degree n) -> its bit position."""
    return {w: i for i, w in enumerate(_admissible_words(s, n))}


def _vector(index: dict[int, int], words: Iterable[int]) -> int:
    """Bit coordinates of a sum of packed words over one bidegree's index."""
    v = 0
    for w in words:
        i = index.get(w)
        if i is None:
            raise ValueError(f"word {_unpack(w)} is not an admissible word "
                             "of this bidegree")
        v ^= 1 << i
    return v


def _images(s: int, n: int) -> Iterator[int]:
    """d of each word of (length s, degree n), in (s + 1, n - 1) coordinates."""
    target = _coords(s + 1, n - 1)
    for w in _admissible_words(s, n):
        yield _vector(target, differential(LambdaElement._trusted(frozenset((w,))))._words)


def _admit(s: int, n: int) -> None:
    """Raise :class:`cohit.ResourceLimit`, as every homology call does before
    any d or basis, when (s, n) or (s + 1, n - 1) has more admissible words
    than ``cohit.MAX_COLUMNS``, when its words recurse past the interpreter's
    limit from the caller's frame, or when a word of (s, n) or (s - 1, n + 1)
    may hold a letter above ``MAX_LETTER``."""
    _check_letters(s - 1, n + 1)
    _check_letters(s, n)
    # d recurses once per letter, three frames deep: _d_grouped, the memo's
    # __missing__ and the interpreter entry the subscript makes to call it;
    # bisected, a bare script calling _homology needs 3 (s + 1) + 3 at
    # s = 40 and s = 100.  The admissible words recurse two frames a letter,
    # within this bound
    depth, frame = 3 * (s + 1) + 16, sys._getframe(1)
    while frame:
        depth, frame = depth + 1, frame.f_back
    if depth > sys.getrecursionlimit():
        raise cohit.ResourceLimit(f"words of length {s + 1} recurse deeper than "
                                  f"the limit of {sys.getrecursionlimit()} frames")
    cap = cohit.MAX_COLUMNS
    for length, degree in ((s, n), (s + 1, n - 1)):
        # at most one word has no letter or a negative degree; the others are
        # compositions of degree, so most degrees need no count
        if length < 1 or degree < 0:
            continue
        compositions = count_monomials(length, degree)
        if compositions > cap and admissible_count(length, degree, cap) > cap:
            raise cohit.ResourceLimit(
                f"length {length} and degree {degree} have more admissible "
                f"words than the budget of {cap}"
            )


@cache
def _homology(s: int, n: int) -> tuple[EchelonForm, tuple[int, ...]]:
    """One echelon of (length s, degree n), and the cycles it kept.

    Boundaries are cycles (d∘d = 0), so t = dim Ext is the kernel's dimension
    less the boundaries' rank.  The rows are shifted up t bits, boundaries
    zero there; cycle k, independent modulo the rows before it, goes in with
    bit k set, so a cycle shifted up t bits reduces to its coordinates.  The
    echelon of each map lives only while its kernel is read.
    """
    _admit(s, n)
    ech = echelonize(_images(s - 1, n + 1))
    kernel = image_kernel(_images(s, n))
    t = len(kernel) - ech.rank
    ech.rows = {p + t: row << t for p, row in ech.rows.items()}
    cycles: list[int] = []
    for v in kernel:
        residual = ech.reduce(v << t)
        if residual >> t:
            if len(cycles) == t:  # a tag would be written into a column
                raise RuntimeError(f"over {t} cycles at {(s, n)}: d∘d is not zero")
            ech.add(residual | 1 << len(cycles))
            cycles.append(v)
    return ech, tuple(cycles)


def ext_dim(s: int, n: int) -> int:
    """Dimension of the homology at (length s, internal degree n).

    Raises :class:`cohit.ResourceLimit` where :func:`_admit` refuses.
    """
    if s == 0:
        return 1 if n == 0 else 0
    if s < 0 or n < 0:
        return 0
    return len(_homology(s, n)[1])


def classes_equal(x: LambdaElement, y: LambdaElement) -> bool:
    """Whether two cycles are homologous: their :func:`homology_coordinates`
    at the bidegree of the nonzero one agree.  Raises as that does."""
    el = y if x.is_zero() else x
    if el.is_zero():
        return True
    s, n = el.bidegree
    return homology_coordinates(x, s, n) == homology_coordinates(y, s, n)


def homology_coordinates(el: LambdaElement, s: int, n: int) -> int:
    """Coefficient bit-vector of a cycle over the homology basis, modulo
    boundaries: bit k is its coefficient on cycle k of ``_homology(s, n)``.

    The bidegree is passed explicitly so the zero element resolves; raises
    on non-cycles and on elements of the wrong bidegree, and raises
    :class:`cohit.ResourceLimit`, before any d, where :func:`_admit` refuses.
    """
    if not el.is_zero():
        if el.bidegree != (s, n):
            raise ValueError(f"element has bidegree {el.bidegree}, expected {(s, n)}")
        _admit(s, n)
        if not is_cycle(el):
            raise ValueError("element is not a cycle")
    ech, cycles = _homology(s, n)
    tag = ech.reduce(_vector(_coords(s, n), el._words) << len(cycles))
    if tag >> len(cycles):
        raise RuntimeError("cycle escaped the homology decomposition")
    return tag


# -- the divided-power to lambda transfer map -----------------------------------


def _psi_words(q: int, terms: Iterable[DualMonomial]) -> set[int]:
    """psi of a sum of dual monomials in q variables as packed admissible words.

    The sum is pushed down one variable: its image is the sum over k of
    l_k psi(bucket k), where bucket k sums (rest) Sq^(k - j_1) over the terms
    (j_1, rest).  Terms cancel inside each bucket before any word is built,
    and each l_k multiplies its bucket's image, already admissible, through
    ``_times``.
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
            _times(k, _psi_words(q - 1, bucket), words)
    return words


def _primitive_psi_words(q: int, terms: Iterable[DualMonomial]) -> set[int]:
    """:func:`_psi_words` of a theta killed by every positive square.

    Split theta by its first exponent, theta = sum_j a^(j) theta_j.  Bucket
    k of :func:`_psi_words` is sum_{j <= k} Y_j with Y_j = theta_j Sq^(k - j).
    By the Cartan rule, the part of theta Sq^t at first exponent m is
    sum_a C(m, a) theta_(m+a) Sq^(t-a), and it is 0 for every t > 0.  For
    each m < k, take t = k - m: sum_{j >= m} C(m, j - m) Y_j = 0.  These
    relations are unitriangular in the Y_j (C(m, 0) = 1), so with Y_k =
    theta_k every Y_m is y_m theta_k, where y_k = 1 and y_m =
    sum_{j > m} C(m, j - m) y_j mod 2.  Bucket k is therefore c_k theta_k with
    c_k = sum_{m <= k} y_m mod 2, and c_k = 1 exactly when k + 1 is a power
    of two (solved for every k up to ``MAX_LETTER``).  So
    psi(theta) = sum over k = 2^i - 1 of l_k psi(theta_k): the first level
    builds no dual square.  The theta_k need not be primitive, so the lower
    levels take the general path.
    """
    if q <= 1:
        return _psi_words(q, terms)
    tails: dict[int, list[DualMonomial]] = {}
    for term in terms:
        k = term[0]
        if not (k + 1) & k:
            tails.setdefault(k, []).append(term[1:])
    words: set[int] = set()
    for k, theta_k in tails.items():
        _times(k, _psi_words(q - 1, theta_k), words)
    return words


def psi(theta: DualElement, primitive: bool = False) -> LambdaElement:
    """The chain-level transfer on divided powers, in admissible form.

    With ``primitive``, theta must be killed by every positive square (a
    span kernel vector, say), which is not checked: only the first
    exponents 2^i - 1 are read (:func:`_primitive_psi_words`).

    Raises :class:`cohit.ResourceLimit` when theta's degree n is above
    ``MAX_LETTER``, or where :func:`cohit.check_columns` refuses (q, n): the
    words of length q and degree n, one per degree-n monomial, outnumber the
    column budget.  The cost is the Adem rewriting, whose memo grows
    with the degree, and the budget refuses it before any word is built.
    Shares the constructor's per-call budget of ``MAX_REWRITES``.
    """
    global _rewrite_count
    q, n = theta.q, theta.degree or 0
    _check_letters(q, n)
    cohit.check_columns(q, n)
    _rewrite_count = 0
    words = (_primitive_psi_words if primitive else _psi_words)(q, theta.terms)
    return LambdaElement._trusted(frozenset(words))


def clear_caches() -> None:
    adem_pair.cache_clear()
    _d_generator.cache_clear()
    _L.clear()
    _D.clear()
    _admissible_words.cache_clear()
    _coords.cache_clear()
    _homology.cache_clear()
