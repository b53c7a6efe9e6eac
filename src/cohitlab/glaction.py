"""The GL_q(F2) action on polynomials and divided powers.

Generators: the adjacent transpositions (x_j <-> x_{j+1}) and the transvection
x_1 -> x_1 + x_2.  A group element is encoded by its variable images: row r
lists the variables appearing in the image of x_{r+1}.

On the divided-power dual the adjoint action (transposed images) satisfies
``<act_dual(transpose(s), theta), f> = <theta, substitute(s, f)>``; the
invariant/coinvariant dimensions computed here do not depend on that choice
because transposition permutes the generating set of the group.

Everything is computed in admissible coordinates: invariants are joint
kernels of (sigma + 1) constraint matrices on the quotient, coinvariants are
the primitive space modulo span{theta + sigma(theta)} over a basis of
primitives and all generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import cohit
from .f2linalg import echelonize, image_kernel, support
from .polyspace import (
    DualElement,
    Monomial,
    Polynomial,
    WeightVector,
    check_rank,
    padded_weight,
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


def transpose_images(images: Images) -> Images:
    q = len(images)
    rows: list[list[int]] = [[] for _ in range(q)]
    for r, S in enumerate(images):
        for j in S:
            rows[j].append(r)
    return tuple(tuple(sorted(r)) for r in rows)


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
    return image_kernel(stacked, len(image_vectors) * dim)[1]


def invariants(
    q: int,
    n: int,
    group: str = "gl",
    omega: WeightVector | None = None,
    config: cohit.EngineConfig | None = None,
) -> InvariantReport:
    """Fixed classes of the quotient (or of one weight subquotient).

    For the subquotient, coordinates of strictly smaller weight are discarded
    (they vanish in the subquotient) and any strictly larger weight in an
    image raises :class:`WeightLeak` — the substitution action can only
    preserve or lower the weight filtration, so a leak means a bug.
    """
    data = cohit.quotient(q, n, config)
    gens = generator_images(q, group)
    if omega is not None:
        omega = tuple(omega)
        while omega and omega[-1] == 0:
            omega = omega[:-1]
        keep = [i for i, m in enumerate(data.basis) if weight_vector(m) == omega]
        sub_basis = [data.basis[i] for i in keep]
        sub_index = {i: k for k, i in enumerate(keep)}
        bound = padded_weight(omega, n)
        dim = len(keep)
        image_vectors = []
        for images in gens:
            vectors = []
            for i in keep:
                mono = data.basis[i]
                moved = substitute(images, Polynomial(q, [mono]))
                coords = data.coordinates(moved) ^ (1 << i)
                v = 0
                for p in support(coords):
                    w = padded_weight(weight_vector(data.basis[p]), n)
                    if w > bound:
                        raise WeightLeak(
                            f"sigma image of {mono} leaves weight {omega} upward"
                        )
                    if w == bound:
                        v |= 1 << sub_index[p]
                vectors.append(v)
            image_vectors.append(vectors)
        kernel = _joint_kernel(image_vectors, dim, dim)
        reps = [
            Polynomial(q, [sub_basis[i] for i in support(v)]) for v in kernel
        ]
        return InvariantReport(q, n, group, omega, len(kernel), sub_basis, kernel, reps)

    dim = data.dim
    image_vectors = []
    for images in gens:
        vectors = []
        for i, mono in enumerate(data.basis):
            moved = substitute(images, Polynomial(q, [mono]))
            vectors.append(data.coordinates(moved) ^ (1 << i))
        image_vectors.append(vectors)
    kernel = _joint_kernel(image_vectors, dim, dim)
    reps = [data.from_coordinates(v) for v in kernel]
    return InvariantReport(
        q, n, group, None, len(kernel), list(data.basis), kernel, reps
    )


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
    """The primitive space modulo the span of theta + sigma(theta).

    Primitives (duals killed by all positive squares) form a module over the
    group; the quotient by all (sigma + 1) images over a basis of primitives
    and a generating set of the group is the space of coinvariants.  Uses the
    adjoint (transposed) action on divided powers.

    A primitive is determined by its coordinates at the admissible (non-pivot)
    positions of the hit span, so the relation rows live in that coordinate
    space and a class is the normal form of those coordinates modulo the
    relation echelon, read off at the surviving free positions.
    """

    def __init__(
        self,
        q: int,
        n: int,
        group: str = "gl",
        config: cohit.EngineConfig | None = None,
    ):
        self.q = q
        self.n = n
        self.group = group
        span = cohit.span_for(q, n, config)
        self.span = span
        self.vectors = span.primitive_vectors()
        free_positions = span.admissible_positions()
        self._index = {p: i for i, p in enumerate(free_positions)}
        self.primitive_dim = len(self.vectors)
        if self.primitive_dim != len(free_positions):
            raise RuntimeError(
                f"{self.primitive_dim} primitives but {len(free_positions)} "
                "admissible positions"
            )

        relation_rows = []
        gens = [transpose_images(g) for g in generator_images(q, group)]
        for v in self.vectors:
            theta = span.to_dual(v)
            for images in gens:
                delta = act_dual(images, theta) ^ theta
                relation_rows.append(self._primitive_coordinates(delta))
        self.relations = echelonize(relation_rows, self.primitive_dim)
        self.free = [
            i for i in range(self.primitive_dim) if i not in self.relations.rows
        ]
        self._quotient_index = {i: k for k, i in enumerate(self.free)}
        self.dim = len(self.free)

    def _restrict(self, vec: int) -> int:
        out = 0
        for p in support(vec):
            i = self._index.get(p)
            if i is not None:
                out |= 1 << i
        return out

    def _expand(self, coords: int) -> int:
        out = 0
        for i in support(coords):
            out ^= self.vectors[i]
        return out

    def _primitive_coordinates(self, theta: DualElement) -> int:
        """Coordinates over the primitive basis; theta must be primitive."""
        vec = self.span.dual_to_vector(theta)
        coords = self._restrict(vec)
        if self._expand(coords) != vec:
            raise ValueError("element is not annihilated by all positive squares")
        return coords

    def class_coordinates(self, theta: DualElement) -> int:
        """Bit-vector of [theta] over the coinvariant basis."""
        nf = self.relations.normal_form(self._primitive_coordinates(theta))
        out = 0
        for i in support(nf):
            out |= 1 << self._quotient_index[i]
        return out

    def representatives(self) -> list[DualElement]:
        return [self.span.to_dual(self.vectors[i]) for i in self.free]

    def report(self) -> CoinvariantReport:
        return CoinvariantReport(
            self.q,
            self.n,
            self.group,
            self.dim,
            self.primitive_dim,
            self.representatives(),
        )


def coinvariants(
    q: int,
    n: int,
    group: str = "gl",
    config: cohit.EngineConfig | None = None,
) -> CoinvariantReport:
    """Coinvariants of the primitive space; see :class:`CoinvariantData`."""
    return CoinvariantData(q, n, group, config).report()


def kameko_kernel_invariants(
    q: int,
    n: int,
    group: str = "gl",
    config: cohit.EngineConfig | None = None,
) -> InvariantReport:
    """Fixed classes inside the kernel of the halving map on Q_n."""
    km = cohit.kameko_matrix(q, n, config)
    data = km.domain
    kernel_vectors = km.kernel_coordinates()
    gens = generator_images(q, group)
    image_vectors = []
    for images in gens:
        vectors = []
        for kv in kernel_vectors:
            f = data.from_coordinates(kv)
            moved = substitute(images, f)
            vectors.append(data.coordinates(moved) ^ kv)
        image_vectors.append(vectors)
    alphas = _joint_kernel(image_vectors, len(kernel_vectors), data.dim)
    reps = []
    vecs = []
    for a in alphas:
        v = 0
        for i in support(a):
            v ^= kernel_vectors[i]
        vecs.append(v)
        reps.append(data.from_coordinates(v))
    return InvariantReport(
        q, n, group, None, len(alphas), list(data.basis), vecs, reps
    )
