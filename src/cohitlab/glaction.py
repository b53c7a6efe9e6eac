"""The GL_q(F2) action on Q_n: invariants and coinvariants.

Generators: the adjacent transpositions (x_j <-> x_{j+1}) and the transvection
x_1 -> x_1 + x_2.  A group element is encoded by its variable images: row r
lists the variables appearing in the image of x_{r+1}.

Both sides are read from one matrix per generator g: the matrix of g + 1 on
Q_n in admissible coordinates (:func:`plus_one_images`).  Invariants are the
joint kernel of these matrices.  Coinvariants are the primitives (duals
killed by every positive square) modulo the span of theta + g(theta).  The
primitives pair perfectly with Q_n, primitive k being dual to admissible
monomial k counted from the top, and the adjoint action on divided powers
satisfies ``<act_dual(transpose(g), theta), f> = <theta, substitute(g, f)>``.
So the relation row of (theta_v, transpose(g)) is row v of the transposed
matrix of g + 1, and the transposed generators generate the same group:
coinvariants of the primitives are dual to invariants of Q_n (Singer 1989;
Boardman 1993), and no dual element is ever acted on.

:func:`act_dual`, the divided-power action itself, has no engine caller: it
is the reference the tests check that duality against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from . import cohit
from .f2linalg import dot, echelonize, from_support, image_kernel, support
from .polyspace import (
    DualElement,
    Monomial,
    Polynomial,
    WeightVector,
    check_rank,
    padded_weight,
    trim_weight,
    weight_vector,
)

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


def _subst_monomial(images: Images, mono: Monomial) -> set[Monomial]:
    q = len(mono)
    if is_permutation(images):
        out = [0] * q
        for r, e in enumerate(mono):
            out[images[r][0]] += e
        return {tuple(out)}
    acc: set[Monomial] = {(0,) * q}
    for r, e in enumerate(mono):
        if e == 0:
            continue
        S = images[r]
        if len(S) == 1:
            j = S[0]
            acc = {m[:j] + (m[j] + e,) + m[j + 1 :] for m in acc}
            continue
        k = 0
        while e:
            if e & 1:
                power = 1 << k
                new: set[Monomial] = set()
                for m in acc:
                    for j in S:
                        t = m[:j] + (m[j] + power,) + m[j + 1 :]
                        new ^= {t}
                acc = new
            e >>= 1
            k += 1
    return acc


def substitute(images: Images, f: Polynomial) -> Polynomial:
    """Apply the linear substitution to every monomial of f."""
    if len(images) != f.q:
        raise ValueError("substitution size does not match variable count")
    acc: set[Monomial] = set()
    for m in f.monomials:
        acc ^= _subst_monomial(images, m)
    return Polynomial(f.q, acc)


# -- action on divided powers ----------------------------------------------------


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _dual_subst_term(images: Images, term: Monomial) -> set[Monomial]:
    q = len(term)
    if is_permutation(images):
        out = [0] * q
        for r, e in enumerate(term):
            out[images[r][0]] += e
        return {tuple(out)}
    states: set[Monomial] = {(0,) * q}
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
    acc: set[Monomial] = set()
    for t in theta.terms:
        acc ^= _dual_subst_term(images, t)
    return DualElement(theta.q, acc)


# -- the matrices of g + 1 on Q_n ---------------------------------------------------


@cache
def plus_one_images(q: int, n: int, group: str) -> tuple[tuple[int, ...], ...]:
    """Per generator g, the image of g + 1 on each basis class of Q_n (memoized).

    Entry ``[g][i]`` is the coordinate vector of ``(g + 1) x^{a_i}`` over the
    admissible basis of :func:`cohit.quotient`.
    """
    data = cohit.quotient(q, n)
    return tuple(
        tuple(
            data.coordinates(substitute(g, Polynomial(q, [mono]))) ^ (1 << i)
            for i, mono in enumerate(data.basis)
        )
        for g in generator_images(q, group)
    )


def _combine(vectors: Sequence[int], bits: int) -> int:
    """Sum of the vectors selected by the set bits."""
    out = 0
    for i in support(bits):
        out ^= vectors[i]
    return out


# -- invariants -------------------------------------------------------------------


@dataclass
class InvariantReport:
    q: int
    n: int
    group: str
    omega: WeightVector | None
    dim: int
    basis_monomials: list[Monomial]
    vectors: list[int]  # coordinate bit-vectors over basis_monomials
    representatives: list[Polynomial]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "group": self.group,
            "omega": list(self.omega) if self.omega is not None else None,
            "dim": self.dim,
            "representatives": [p.to_json()["monomials"] for p in self.representatives],
        }


def _joint_kernel(
    image_vectors: Sequence[Sequence[int]], sources: int, dim: int
) -> list[int]:
    """Common kernel of several maps from F2^sources to F2^dim.

    ``image_vectors[g][i]`` is map g's image of source i.  Shifted by
    ``g * dim``, the images of i stack into one vector, and the joint kernel
    is the kernel of the stacked map.
    """
    stacked = [0] * sources
    for g, vectors in enumerate(image_vectors):
        shift = g * dim
        for i, v in enumerate(vectors):
            stacked[i] |= v << shift
    return image_kernel(stacked)[1]


def invariants(
    q: int, n: int, group: str = "gl", omega: WeightVector | None = None
) -> InvariantReport:
    """Fixed classes of the quotient (or of one weight subquotient).

    For the subquotient, coordinates of strictly smaller weight are discarded
    (they vanish in the subquotient) and any strictly larger weight in an
    image raises :class:`WeightLeak` — the substitution action can only
    preserve or lower the weight filtration, so a leak means a bug.
    """
    data = cohit.quotient(q, n)
    images = plus_one_images(q, n, group)
    if omega is None:
        kernel = _joint_kernel(images, data.dim, data.dim)
        reps = [data.from_coordinates(v) for v in kernel]
        return InvariantReport(
            q, n, group, None, len(kernel), list(data.basis), kernel, reps
        )

    omega = trim_weight(omega)
    keep = [i for i, m in enumerate(data.basis) if weight_vector(m) == omega]
    sub_basis = [data.basis[i] for i in keep]
    sub_index = {i: k for k, i in enumerate(keep)}
    bound = padded_weight(omega, n)
    image_vectors = []
    for g_images in images:
        vectors = []
        for i in keep:
            v = 0
            for p in support(g_images[i]):
                w = padded_weight(weight_vector(data.basis[p]), n)
                if w > bound:
                    raise WeightLeak(
                        f"sigma image of {data.basis[i]} leaves weight {omega} upward"
                    )
                if w == bound:
                    v |= 1 << sub_index[p]
            vectors.append(v)
        image_vectors.append(vectors)
    kernel = _joint_kernel(image_vectors, len(keep), len(keep))
    reps = [Polynomial(q, [sub_basis[i] for i in support(v)]) for v in kernel]
    return InvariantReport(q, n, group, omega, len(kernel), sub_basis, kernel, reps)


# -- coinvariants ------------------------------------------------------------------


@dataclass
class CoinvariantReport:
    q: int
    n: int
    group: str
    dim: int
    primitive_dim: int
    representatives: list[DualElement]

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "group": self.group,
            "dim": self.dim,
            "primitive_dim": self.primitive_dim,
            "representatives": [d.to_json()["terms"] for d in self.representatives],
        }


class CoinvariantData:
    """The primitive space modulo the span of theta + g(theta).

    A primitive is determined by its coordinates at the admissible (non-pivot)
    positions of the hit span, ascending: primitive k is the kernel vector
    of the hit echelon whose admissible support is position k alone, and it
    is dual to admissible monomial ``dim - 1 - k`` of Q_n, since
    ``HitSpan.basis`` runs the other way.  The relation rows live in
    that coordinate space: the row of (primitive v, generator g) is row v of
    the transposed matrix of g + 1 on Q_n (see the module docstring), read
    with that index map.  A class is the normal form of a primitive's
    coordinates modulo the relation echelon, read off at the surviving free
    positions.  Only the representatives' kernel vectors are built, never
    the whole primitive basis.
    """

    def __init__(self, q: int, n: int, group: str = "gl"):
        self.q = q
        self.n = n
        self.group = group
        self.span = span = cohit.span_for(q, n)
        positions = span.admissible_positions()
        self._index = {p: k for k, p in enumerate(positions)}
        dim = self.primitive_dim = len(positions)
        images = plus_one_images(q, n, group)
        rows = [[0] * len(images) for _ in range(dim)]
        for g, g_images in enumerate(images):
            for i, image in enumerate(g_images):
                bit = 1 << (dim - 1 - i)
                for j in support(image):
                    rows[dim - 1 - j][g] |= bit
        self.relations = echelonize(r for v in rows for r in v)
        self.free = self.relations.free_columns(dim)
        self._quotient_index = {k: c for c, k in enumerate(self.free)}
        self.dim = len(self.free)
        kernel_vector = span.echelon.kernel_vector
        self._representatives = [kernel_vector(positions[k]) for k in self.free]

    def _primitive_coordinates(self, theta: DualElement) -> int:
        """Coordinates over the primitive basis; theta must be primitive."""
        vec = self.span.dual_to_vector(theta)
        if any(dot(row, vec) for row in self.span.echelon.rows.values()):
            raise ValueError("element is not annihilated by all positive squares")
        index = self._index
        return from_support(index[p] for p in support(vec) if p in index)

    def class_coordinates(self, theta: DualElement) -> int:
        """Bit-vector of [theta] over the coinvariant basis."""
        nf = self.relations.normal_form(self._primitive_coordinates(theta))
        return from_support(self._quotient_index[k] for k in support(nf))

    def representatives(self) -> list[DualElement]:
        return [self.span.to_dual(v) for v in self._representatives]

    def report(self) -> CoinvariantReport:
        return CoinvariantReport(self.q, self.n, self.group, self.dim,
                                 self.primitive_dim, self.representatives())


@cache
def coinvariant_data(q: int, n: int, group: str) -> CoinvariantData:
    """Memoized :class:`CoinvariantData` for one (q, n, group)."""
    return CoinvariantData(q, n, group)


def coinvariants(q: int, n: int, group: str = "gl") -> CoinvariantReport:
    """Coinvariants of the primitive space; see :class:`CoinvariantData`."""
    return coinvariant_data(q, n, group).report()


def kameko_kernel_invariants(q: int, n: int, group: str = "gl") -> InvariantReport:
    """Fixed classes inside the kernel of the halving map on Q_n.

    By linearity, the image of g + 1 on a kernel vector is the sum of its
    images on the basis classes in the vector's support.
    """
    km = cohit.kameko_matrix(q, n)
    data = km.domain
    kernel_vectors = km.kernel
    image_vectors = [
        [_combine(g_images, kv) for kv in kernel_vectors]
        for g_images in plus_one_images(q, n, group)
    ]
    alphas = _joint_kernel(image_vectors, len(kernel_vectors), data.dim)
    vecs = [_combine(kernel_vectors, a) for a in alphas]
    reps = [data.from_coordinates(v) for v in vecs]
    return InvariantReport(
        q, n, group, None, len(alphas), list(data.basis), vecs, reps
    )
