"""The GL_q(F2) action on Q_n: invariants and coinvariants.

Generators: the adjacent transpositions (x_j <-> x_{j+1}) and the transvection
x_1 -> x_1 + x_2.  A group element is encoded by its variable images: row r
lists the variables appearing in the image of x_{r+1}.

Both sides are read from one matrix per generator g: the matrix of g + 1 on
Q_n in admissible coordinates (:func:`plus_one_images`), computed on the hit
span's column positions with no polynomial built.  A transposition permutes
the columns, so it is read as a permutation of exponents, and the
transvection's expansion goes straight to the span's coordinates.  One
routine, :func:`_fixed_classes`, finds the fixed classes of Q_n, of one
weight block of its basis and of the halving kernel from these matrices.
Coinvariants are the primitives (duals killed by every positive square)
modulo the span of theta + g(theta).  The primitives pair perfectly with
Q_n, primitive k being dual to admissible monomial k, and the adjoint
action on divided powers satisfies
``<act_dual(transpose(g), theta), f> = <theta, substitute(g, f)>``.
So the relation row of (theta_v, transpose(g)) is row v of the transposed
matrix of g + 1, and the transposed generators generate the same group:
coinvariants of the primitives are dual to invariants of Q_n (Singer 1989;
Boardman 1993), and no dual element is ever acted on.  The primitives, and
the test of whether a dual is one, are the hit span's
(:meth:`HitSpan.primitive_coordinates`); this module reads no echelon row.

:func:`substitute`, the action on a polynomial, and :func:`act_dual`, the
divided-power action, have no engine caller: they are the references the
tests check the matrices and that duality against.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import cohit
from .f2linalg import echelonize, image_kernel, support
from .polyspace import (
    DualElement,
    Monomial,
    Polynomial,
    WeightVector,
    check_rank,
    trim_weight,
)
from .steenrod import HitSpan, _submasks

Images = tuple[tuple[int, ...], ...]


class WeightLeak(RuntimeError):
    """A subquotient action produced a strictly larger weight (should not happen)."""


def transposition_images(q: int, j: int) -> Images:
    """x_j <-> x_{j+1}, 1-indexed j in 1..q-1."""
    if not 1 <= j <= q - 1:
        raise ValueError(f"transposition index {j} out of range for q={q}")
    rows = [[r] for r in range(q)]
    rows[j - 1], rows[j] = rows[j], rows[j - 1]
    return tuple(tuple(r) for r in rows)

def transvection_images(q: int) -> Images:
    """x_1 -> x_1 + x_2, other variables fixed."""
    if q < 2:
        raise ValueError("transvection needs at least two variables")
    rows = [(r,) for r in range(q)]
    rows[0] = (0, 1)
    return tuple(rows)


def generator_images(q: int, group: str = "gl") -> list[Images]:
    """Generators of the symmetric group ('sigma') or all of GL_q ('gl')."""
    check_rank(q)
    if group not in ("sigma", "gl"):
        raise ValueError("group must be 'sigma' or 'gl'")
    gens = [transposition_images(q, j) for j in range(1, q)]
    if group == "gl" and q >= 2:
        gens.append(transvection_images(q))
    return gens


def is_permutation(images: Images) -> bool:
    return all(len(S) == 1 for S in images)


# -- action on polynomials -----------------------------------------------------


@cache
def _splits(e: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The ways to split e into k binary submasks with disjoint bits.

    They are the terms of (x_1 + ... + x_k)^e: a multinomial coefficient is
    odd exactly when its parts share no bit (Lucas).
    """
    if k == 1:
        return ((e,),)
    return tuple(
        (d,) + rest for d in _submasks(e) for rest in _splits(e ^ d, k - 1)
    )


@cache
def _exponent_map(images: Images) -> Callable[[Monomial], Monomial]:
    """A permutation substitution as a map of exponent tuples."""
    source = [0] * len(images)
    for r, (j,) in enumerate(images):
        source[j] = r  # exponent r of x^e moves to variable j
    return itemgetter(*source) if len(source) > 1 else tuple


def _subst_monomial(images: Images, mono: Monomial) -> set[Monomial]:
    """The monomials of the substitution's image of one monomial.

    A variable with one image moves its exponent there; one with several
    spreads its exponent over them in every split of :func:`_splits`.  Terms
    cancel in pairs only between the spreads of different variables.
    """
    base = [0] * len(mono)
    spread = []
    for S, e in zip(images, mono):
        if len(S) == 1:
            base[S[0]] += e
        elif e:
            spread.append((S, e))
    acc = {tuple(base)}
    for S, e in spread:
        new: set[Monomial] = set()
        for m in acc:
            for split in _splits(e, len(S)):
                t = list(m)
                for j, c in zip(S, split):
                    t[j] += c
                new ^= {tuple(t)}
        acc = new
    return acc


def substitute(images: Images, f: Polynomial) -> Polynomial:
    """Apply the linear substitution to every monomial of f."""
    if len(images) != f.q:
        raise ValueError("substitution size does not match variable count")
    return f.map_terms(lambda m: _subst_monomial(images, m))


# -- action on divided powers ----------------------------------------------------


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _dual_subst_term(images: Images, term: Monomial) -> set[Monomial]:
    states: set[Monomial] = {(0,) * len(term)}
    for r, m in enumerate(term):
        if m == 0:
            continue
        S = images[r]
        new: set[Monomial] = set()
        if len(S) == 1:
            j = S[0]
            for st in states:
                if st[j] & m:
                    continue  # C(st_j + m, m) is even
                new ^= {st[:j] + (st[j] + m,) + st[j + 1 :]}
        else:
            for st in states:
                for comp in _compositions(m, len(S)):
                    t = list(st)
                    ok = True
                    for j, c in zip(S, comp):
                        if t[j] & c:
                            ok = False
                            break
                        t[j] += c
                    if ok:
                        new ^= {tuple(t)}
        states = new
    return states


def act_dual(images: Images, theta: DualElement) -> DualElement:
    """Linear substitution on divided powers: a_r -> sum of a_j, j in images[r].

    Divided powers of a sum expand with no coefficients,
    ``(u + v)^(m) = sum u^(k) v^(m-k)``, while same-variable products carry
    ``a^(i) a^(j) = C(i+j, i) a^(i+j)``.
    """
    if len(images) != theta.q:
        raise ValueError("substitution size does not match variable count")
    return theta.map_terms(lambda t: _dual_subst_term(images, t))


# -- the matrices of g + 1 on Q_n ---------------------------------------------------


@cache
def plus_one_images(q: int, n: int, group: str) -> tuple[tuple[int, ...], ...]:
    """Per generator g, the image of g + 1 on each basis class of Q_n (memoized).

    Entry ``[g][i]`` is the coordinate vector of ``(g + 1) x^{a_i}`` over the
    admissible basis of :func:`cohit.span_for`.
    """
    span = cohit.span_for(q, n)
    return tuple(
        tuple(image ^ (1 << i) for i, image in enumerate(_basis_images(span, g)))
        for g in generator_images(q, group)
    )


def _basis_images(span: HitSpan, images: Images) -> Iterator[int]:
    """The coordinates of g x^b over ``span.basis``, for each basis monomial b.

    A permutation of the variables permutes the span's columns, so g x^b is
    one column: when it is admissible its coordinate is its basis index,
    with no normal form.
    """
    if not is_permutation(images):
        for mono in span.basis:
            yield span.sum_coordinates(_subst_monomial(images, mono))
        return
    move = _exponent_map(images)
    index = {m: k for k, m in enumerate(span.basis)}
    for mono in span.basis:
        image = move(mono)
        k = index.get(image)
        yield 1 << k if k is not None else span.sum_coordinates((image,))


def _combine(vectors: Sequence[int], bits: int) -> int:
    """Sum of the vectors selected by the set bits."""
    out = 0
    for i in support(bits):
        out ^= vectors[i]
    return out


# -- invariants -------------------------------------------------------------------


class InvariantReport(NamedTuple):
    q: int
    n: int
    group: str
    omega: WeightVector | None
    dim: int
    basis_monomials: list[Monomial]
    vectors: list[int]  # coordinate bit-vectors over basis_monomials

    def to_json(self) -> dict:
        """The classes print from their coordinates: the basis ascends in the
        monomial order (:func:`polyspace.monomial_key`)."""
        basis = self.basis_monomials
        return {
            "q": self.q,
            "n": self.n,
            "group": self.group,
            "omega": list(self.omega) if self.omega is not None else None,
            "dim": self.dim,
            "representatives": [[list(basis[i]) for i in support(v)]
                                for v in self.vectors],
        }


def invariants(
    q: int, n: int, group: str = "gl", omega: WeightVector | None = None
) -> InvariantReport:
    """Fixed classes of Q_n, or of its weight-omega subquotient, whose
    vectors are over the basis block of weight omega."""
    span = cohit.span_for(q, n)
    block = range(span.dim) if omega is None else span.weight_block(omega)
    omega = None if omega is None else trim_weight(omega)
    return _fixed_classes(q, n, group, omega, [1 << i for i in block], block)


def _fixed_classes(
    q: int, n: int, group: str, omega: WeightVector | None,
    sources: Sequence[int], block: range,
) -> InvariantReport:
    """The combinations of the sources that every generator fixes in the
    subquotient of the basis block.

    A source's image under g + 1 sums the images of the classes in its
    support.  Bits below the block are of smaller weight and vanish; a bit
    at or above ``block.stop`` raises :class:`WeightLeak`, since the action
    never raises weight.  Each source's images, ``len(block)`` bits apart,
    stack into one vector, and the kernel of the stacked map is the answer.
    """
    span = cohit.span_for(q, n)
    images = plus_one_images(q, n, group)
    width = len(block)
    stacked = []
    for source in sources:
        v = 0
        for g, g_images in enumerate(images):
            image = _combine(g_images, source)
            if image >> block.stop:
                leaked = span.from_coordinates(source)
                raise WeightLeak(f"an image of {leaked} leaves weight {omega} upward")
            v |= (image >> block.start) << (g * width)
        stacked.append(v)
    vectors = [_combine(sources, a) for a in image_kernel(stacked)]
    return InvariantReport(
        q, n, group, omega, len(vectors), list(span.basis[block.start:block.stop]),
        [v >> block.start for v in vectors],
    )


# -- coinvariants ------------------------------------------------------------------


class CoinvariantData:
    """The primitive space modulo the span of theta + g(theta).

    Everything about primitives is the hit span's: primitive k is
    ``span.primitive(k)``, dual to ``span.basis[k]``, and a dual's
    coordinates over them are ``span.primitive_coordinates``, which asks the
    Steenrod action whether it is primitive.  The relation rows live in that
    coordinate space: the row of (primitive v, generator g) is row v of the
    transposed matrix of g + 1 on Q_n (see the module docstring).  A class
    is the normal form of a primitive's coordinates modulo the relation
    echelon, read off at the surviving free positions, most senior first.
    Only the representatives are built, never the whole primitive basis,
    and ``to_json`` prints them from their columns, for ``transfer`` too.
    """

    def __init__(self, q: int, n: int, group: str = "gl"):
        self.q = q
        self.n = n
        self.group = group
        self.span = span = cohit.span_for(q, n)
        dim = self.primitive_dim = span.dim
        images = plus_one_images(q, n, group)
        rows = [[0] * len(images) for _ in range(dim)]
        for g, g_images in enumerate(images):
            for i, image in enumerate(g_images):
                for j in support(image):
                    rows[j][g] |= 1 << i
        self.relations = echelonize(r for v in rows for r in v)
        # the classes are listed most senior first
        self.free = self.relations.free_columns(dim)[::-1]
        self._quotient_index = {k: c for c, k in enumerate(self.free)}
        self.dim = len(self.free)
        self._representatives = list(map(span.primitive, self.free))

    def class_coordinates(self, theta: DualElement) -> int:
        """Bit-vector of [theta] over the coinvariant basis."""
        return self.relations.normal_form(self.span.primitive_coordinates(theta),
                                          self._quotient_index)

    def representatives(self) -> list[DualElement]:
        return [DualElement(self.q, self.span.dual_terms(v))
                for v in self._representatives]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "group": self.group,
            "dim": self.dim,
            "primitive_dim": self.primitive_dim,
            "representatives": list(map(self.span.dual_terms, self._representatives)),
        }


@cache
def coinvariants(q: int, n: int, group: str) -> CoinvariantData:
    """Coinvariants of the primitive space, memoized; see :class:`CoinvariantData`."""
    return CoinvariantData(q, n, group)


def kameko_kernel_invariants(q: int, n: int, group: str = "gl") -> InvariantReport:
    """Fixed classes inside the kernel of the halving map on Q_n."""
    km = cohit.kameko_matrix(q, n)
    return _fixed_classes(q, n, group, None, km.kernel, range(km.domain.dim))
